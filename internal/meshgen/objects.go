package meshgen

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"mrts/internal/core"
	"mrts/internal/geom"
)

// Mobile object type IDs (shared by all O-methods; the Factory below builds
// them on reload or migration).
const (
	typeBlock     uint16 = 1 // OUPDR block
	typeLeaf      uint16 = 2 // ONUPDR quad-tree leaf
	typeQueue     uint16 = 3 // ONUPDR refinement queue
	typeSubdomain uint16 = 4 // OPCDM subdomain
	typeBlock3    uint16 = 5 // OUPDR-3D cube block
	typeSpecBlock uint16 = 6 // S-UPDR speculative block
)

// Factory constructs meshgen mobile objects by type, for the MRTS runtime.
func Factory(typeID uint16) (core.Object, error) {
	switch typeID {
	case typeBlock:
		return &blockObj{}, nil
	case typeLeaf:
		return &leafObj{}, nil
	case typeQueue:
		return &queueObj{}, nil
	case typeSubdomain:
		return &subdomainObj{}, nil
	case typeBlock3:
		return &block3Obj{}, nil
	case typeSpecBlock:
		return &specBlockObj{}, nil
	default:
		return nil, core.ErrUnknownType
	}
}

// Binary encoding helpers shared by the object implementations.

// Decode-side length bounds. Every variable-length field in the wire format
// is length-prefixed with a u32 the decoder must not trust: a corrupted or
// truncated blob could otherwise demand a multi-gigabyte allocation (or, for
// the 16*n point math, overflow int on 32-bit platforms) before ReadFull
// ever notices the data is short. The limits are far above anything the
// generators produce, so a trip always means corruption.
const (
	// maxDecodeBytes bounds a raw byte field (64 MiB).
	maxDecodeBytes = 1 << 26
	// maxDecodeElems bounds an element count (4M entries); 16*maxDecodeElems
	// still fits a 32-bit int with room to spare.
	maxDecodeElems = 1 << 22
)

// errDecodeBound reports an implausible length prefix.
func errDecodeBound(what string, n uint32, limit int) error {
	return fmt.Errorf("meshgen: decode %s: length %d exceeds limit %d (corrupt blob?)", what, n, limit)
}

func writeU32(w io.Writer, v uint32) error {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	_, err := w.Write(b[:])
	return err
}

func readU32(r io.Reader) (uint32, error) {
	var b [4]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b[:]), nil
}

func writeF64(w io.Writer, v float64) error {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
	_, err := w.Write(b[:])
	return err
}

func readF64(r io.Reader) (float64, error) {
	var b [8]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return 0, err
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(b[:])), nil
}

func writeRect(w io.Writer, r geom.Rect) error {
	for _, f := range []float64{r.Min.X, r.Min.Y, r.Max.X, r.Max.Y} {
		if err := writeF64(w, f); err != nil {
			return err
		}
	}
	return nil
}

func readRect(r io.Reader) (geom.Rect, error) {
	var f [4]float64
	for i := range f {
		v, err := readF64(r)
		if err != nil {
			return geom.Rect{}, err
		}
		f[i] = v
	}
	return geom.Rect{Min: geom.Pt(f[0], f[1]), Max: geom.Pt(f[2], f[3])}, nil
}

func writeBytes(w io.Writer, b []byte) error {
	if err := writeU32(w, uint32(len(b))); err != nil {
		return err
	}
	_, err := w.Write(b)
	return err
}

// encodable is a mesh that knows its exact encoded size: mesh.Mesh and
// mesh3.Mesh.
type encodable interface {
	EncodedSize() int
	EncodeTo(w io.Writer) error
}

// encodeMesh returns m's EncodeTo bytes in a slice of exactly that length.
// A block keeps these bytes while it is resident, and a bytes.Buffer grown
// by doubling would keep up to twice as much heap as the memory budget
// accounts for it.
func encodeMesh(m encodable) ([]byte, error) {
	buf := bytes.NewBuffer(make([]byte, 0, m.EncodedSize()))
	if err := m.EncodeTo(buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func readBytes(r io.Reader) ([]byte, error) {
	n, err := readU32(r)
	if err != nil {
		return nil, err
	}
	if n > maxDecodeBytes {
		return nil, errDecodeBound("bytes", n, maxDecodeBytes)
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(r, b); err != nil {
		return nil, err
	}
	return b, nil
}

func writePtr(w io.Writer, p core.MobilePtr) error {
	if err := writeU32(w, uint32(p.Home)); err != nil {
		return err
	}
	return writeU32(w, p.Seq)
}

func readPtr(r io.Reader) (core.MobilePtr, error) {
	h, err := readU32(r)
	if err != nil {
		return core.Nil, err
	}
	s, err := readU32(r)
	if err != nil {
		return core.Nil, err
	}
	return core.MobilePtr{Home: core.NodeID(int32(h)), Seq: s}, nil
}

func writePtrs(w io.Writer, ps []core.MobilePtr) error {
	if err := writeU32(w, uint32(len(ps))); err != nil {
		return err
	}
	for _, p := range ps {
		if err := writePtr(w, p); err != nil {
			return err
		}
	}
	return nil
}

func readPtrs(r io.Reader) ([]core.MobilePtr, error) {
	n, err := readU32(r)
	if err != nil {
		return nil, err
	}
	if n > maxDecodeElems {
		return nil, errDecodeBound("ptrs", n, maxDecodeElems)
	}
	out := make([]core.MobilePtr, n)
	for i := range out {
		p, err := readPtr(r)
		if err != nil {
			return nil, err
		}
		out[i] = p
	}
	return out, nil
}

func writePoints(w io.Writer, pts []geom.Point) error {
	if err := writeU32(w, uint32(len(pts))); err != nil {
		return err
	}
	bw := bufio.NewWriter(w)
	var b [16]byte
	for _, p := range pts {
		binary.LittleEndian.PutUint64(b[0:8], math.Float64bits(p.X))
		binary.LittleEndian.PutUint64(b[8:16], math.Float64bits(p.Y))
		if _, err := bw.Write(b[:]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

func readPoints(r io.Reader) ([]geom.Point, error) {
	n, err := readU32(r)
	if err != nil {
		return nil, err
	}
	if n > maxDecodeElems {
		return nil, errDecodeBound("points", n, maxDecodeElems)
	}
	// Read the whole block at once: wrapping r in a buffered reader would
	// over-read and corrupt composed decoders. The bound above keeps
	// 16*int(n) from overflowing int even on 32-bit platforms.
	buf := make([]byte, 16*int(n))
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	pts := make([]geom.Point, n)
	for i := range pts {
		off := 16 * i
		pts[i].X = math.Float64frombits(binary.LittleEndian.Uint64(buf[off : off+8]))
		pts[i].Y = math.Float64frombits(binary.LittleEndian.Uint64(buf[off+8 : off+16]))
	}
	return pts, nil
}

// bytesReader adapts a byte slice into an io.Reader for the decode helpers.
func bytesReader(b []byte) io.Reader { return bytes.NewReader(b) }

// encodePtrList serializes a pointer list for message arguments.
func encodePtrList(ps []core.MobilePtr) []byte {
	var buf bytes.Buffer
	writePtrs(&buf, ps)
	return buf.Bytes()
}
