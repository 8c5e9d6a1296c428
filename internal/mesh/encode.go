package mesh

import (
	"bufio"
	"cmp"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"

	"mrts/internal/geom"
)

const (
	encodeMagic   = 0x4D525453 // "MRTS"
	encodeVersion = 1

	// maxDecodeElems bounds every untrusted count in the encoding (vertices,
	// triangles, constraints).
	maxDecodeElems = 1 << 24

	// maxDecodePrealloc bounds what DecodeFrom allocates on the strength of
	// a count alone; tables larger than this grow as their bytes arrive, so
	// a corrupted length prefix cannot demand a large allocation before the
	// short read is noticed.
	maxDecodePrealloc = 1 << 16
)

// EncodedSize returns the exact number of bytes EncodeTo will write for the
// current mesh state. The out-of-core layer uses it for memory accounting.
func (m *Mesh) EncodedSize() int {
	return 4 + 4 + // magic, version
		4 + 16*len(m.verts) + // vertex count + coordinates
		12 + // super vertices
		4 + 12*m.nAlive + // triangle count + vertex triples
		4 + 8*len(m.constrained) // constraint count + pairs
}

// EncodeTo writes a compact binary encoding of the mesh to w. Triangle IDs
// are not preserved (dead slots are compacted); vertex IDs are preserved.
func (m *Mesh) EncodeTo(w io.Writer) error {
	bw := bufio.NewWriter(w)
	var scratch [16]byte

	putU32 := func(v uint32) error {
		binary.LittleEndian.PutUint32(scratch[:4], v)
		_, err := bw.Write(scratch[:4])
		return err
	}
	putI32 := func(v int32) error { return putU32(uint32(v)) }

	if err := putU32(encodeMagic); err != nil {
		return err
	}
	if err := putU32(encodeVersion); err != nil {
		return err
	}
	if err := putU32(uint32(len(m.verts))); err != nil {
		return err
	}
	for _, p := range m.verts {
		binary.LittleEndian.PutUint64(scratch[:8], math.Float64bits(p.X))
		binary.LittleEndian.PutUint64(scratch[8:16], math.Float64bits(p.Y))
		if _, err := bw.Write(scratch[:16]); err != nil {
			return err
		}
	}
	for _, s := range m.super {
		if err := putI32(int32(s)); err != nil {
			return err
		}
	}
	if err := putU32(uint32(m.nAlive)); err != nil {
		return err
	}
	for i := range m.tris {
		if !m.alive[i] {
			continue
		}
		for k := 0; k < 3; k++ {
			if err := putI32(int32(m.tris[i].V[k])); err != nil {
				return err
			}
		}
	}
	// Constrained edges are written sorted by (a, b), not in map order, so
	// that one mesh always encodes to the same bytes.
	cons := make([]edgeKey, 0, len(m.constrained))
	for k := range m.constrained {
		cons = append(cons, k)
	}
	slices.SortFunc(cons, func(x, y edgeKey) int {
		if c := cmp.Compare(x.a, y.a); c != 0 {
			return c
		}
		return cmp.Compare(x.b, y.b)
	})
	if err := putU32(uint32(len(cons))); err != nil {
		return err
	}
	for _, k := range cons {
		if err := putI32(int32(k.a)); err != nil {
			return err
		}
		if err := putI32(int32(k.b)); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// DecodeFrom reads a mesh previously written by EncodeTo and replaces the
// receiver's contents. Triangle adjacency is rebuilt from the vertex triples.
func (m *Mesh) DecodeFrom(r io.Reader) error {
	br := bufio.NewReader(r)
	var scratch [16]byte

	getU32 := func() (uint32, error) {
		if _, err := io.ReadFull(br, scratch[:4]); err != nil {
			return 0, err
		}
		return binary.LittleEndian.Uint32(scratch[:4]), nil
	}

	magic, err := getU32()
	if err != nil {
		return err
	}
	if magic != encodeMagic {
		return fmt.Errorf("mesh: bad magic %#x", magic)
	}
	version, err := getU32()
	if err != nil {
		return err
	}
	if version != encodeVersion {
		return fmt.Errorf("mesh: unsupported version %d", version)
	}

	nv, err := getU32()
	if err != nil {
		return err
	}
	if nv > maxDecodeElems {
		return fmt.Errorf("mesh: vertex count %d exceeds limit %d (corrupt blob?)", nv, maxDecodeElems)
	}
	verts := make([]geom.Point, 0, min(nv, maxDecodePrealloc))
	for i := uint32(0); i < nv; i++ {
		if _, err := io.ReadFull(br, scratch[:16]); err != nil {
			return err
		}
		verts = append(verts, geom.Point{
			X: math.Float64frombits(binary.LittleEndian.Uint64(scratch[:8])),
			Y: math.Float64frombits(binary.LittleEndian.Uint64(scratch[8:16])),
		})
	}
	var super [3]VertexID
	for i := range super {
		v, err := getU32()
		if err != nil {
			return err
		}
		super[i] = VertexID(int32(v))
	}
	nt, err := getU32()
	if err != nil {
		return err
	}
	if nt > maxDecodeElems {
		return fmt.Errorf("mesh: triangle count %d exceeds limit %d (corrupt blob?)", nt, maxDecodeElems)
	}
	tris := make([]Tri, 0, min(nt, maxDecodePrealloc))
	for i := uint32(0); i < nt; i++ {
		tr := Tri{N: [3]TriID{NoTri, NoTri, NoTri}}
		for k := 0; k < 3; k++ {
			v, err := getU32()
			if err != nil {
				return err
			}
			id := VertexID(int32(v))
			if id < 0 || int(id) >= len(verts) {
				return fmt.Errorf("mesh: triangle %d references vertex %d out of range", i, id)
			}
			tr.V[k] = id
		}
		tris = append(tris, tr)
	}
	nc, err := getU32()
	if err != nil {
		return err
	}
	if nc > maxDecodeElems {
		return fmt.Errorf("mesh: constraint count %d exceeds limit %d (corrupt blob?)", nc, maxDecodeElems)
	}
	constrained := make(map[edgeKey]bool, min(nc, maxDecodePrealloc))
	for i := uint32(0); i < nc; i++ {
		a, err := getU32()
		if err != nil {
			return err
		}
		b, err := getU32()
		if err != nil {
			return err
		}
		va, vb := VertexID(int32(a)), VertexID(int32(b))
		if va < 0 || int(va) >= len(verts) || vb < 0 || int(vb) >= len(verts) {
			return fmt.Errorf("mesh: constrained edge %d references vertex (%d,%d) out of range", i, va, vb)
		}
		constrained[mkEdge(va, vb)] = true
	}

	// Rebuild adjacency from directed half-edges.
	type dedge struct{ a, b VertexID }
	half := make(map[dedge]TriID, 3*len(tris))
	for i := range tris {
		for k := 0; k < 3; k++ {
			a := tris[i].V[(k+1)%3]
			b := tris[i].V[(k+2)%3]
			half[dedge{a, b}] = TriID(i)
		}
	}
	for i := range tris {
		for k := 0; k < 3; k++ {
			a := tris[i].V[(k+1)%3]
			b := tris[i].V[(k+2)%3]
			if n, ok := half[dedge{b, a}]; ok {
				tris[i].N[k] = n
			}
		}
	}

	m.verts = verts
	m.tris = tris
	m.alive = make([]bool, len(tris))
	m.vertTri = make([]TriID, len(verts))
	for i := range m.vertTri {
		m.vertTri[i] = NoTri
	}
	for i := range tris {
		m.alive[i] = true
		for k := 0; k < 3; k++ {
			m.vertTri[tris[i].V[k]] = TriID(i)
		}
	}
	m.free = nil
	m.constrained = constrained
	m.super = super
	m.nAlive = len(tris)
	return nil
}

// AppendEncodedTriangles reads a blob written by EncodeTo in place, without
// decoding it into a Mesh. It accepts exactly the blobs DecodeFrom accepts:
// it checks the magic, the version, every count limit, every triangle and
// constraint vertex reference, and that the constraint section is complete.
// If the blob is valid it appends the corners of every triangle that does
// not touch a super vertex to dst, in encoding order, and returns the
// extended slice; it builds no adjacency. On error dst is returned as is.
func AppendEncodedTriangles(dst [][3]geom.Point, data []byte) ([][3]geom.Point, error) {
	u32 := func(off int) uint32 { return binary.LittleEndian.Uint32(data[off:]) }
	need := func(off int, n uint32, size int) error {
		if uint64(len(data)) < uint64(off)+uint64(n)*uint64(size) {
			return io.ErrUnexpectedEOF
		}
		return nil
	}
	if err := need(0, 3, 4); err != nil {
		return dst, err
	}
	if magic := u32(0); magic != encodeMagic {
		return dst, fmt.Errorf("mesh: bad magic %#x", magic)
	}
	if version := u32(4); version != encodeVersion {
		return dst, fmt.Errorf("mesh: unsupported version %d", version)
	}
	nv := u32(8)
	if nv > maxDecodeElems {
		return dst, fmt.Errorf("mesh: vertex count %d exceeds limit %d (corrupt blob?)", nv, maxDecodeElems)
	}
	vertOff := 12
	off := vertOff + 16*int(nv)
	if err := need(off, 4, 4); err != nil { // super vertices, triangle count
		return dst, err
	}
	var super [3]VertexID
	for i := range super {
		super[i] = VertexID(int32(u32(off + 4*i)))
	}
	nt := u32(off + 12)
	if nt > maxDecodeElems {
		return dst, fmt.Errorf("mesh: triangle count %d exceeds limit %d (corrupt blob?)", nt, maxDecodeElems)
	}
	triOff := off + 16
	off = triOff + 12*int(nt)
	if err := need(triOff, nt, 12); err != nil {
		return dst, err
	}
	inRange := func(v uint32) bool { return v < nv } // also rejects int32(v) < 0
	for i := 0; i < 3*int(nt); i++ {
		if v := u32(triOff + 4*i); !inRange(v) {
			return dst, fmt.Errorf("mesh: triangle %d references vertex %d out of range", i/3, int32(v))
		}
	}
	if err := need(off, 1, 4); err != nil {
		return dst, err
	}
	nc := u32(off)
	if nc > maxDecodeElems {
		return dst, fmt.Errorf("mesh: constraint count %d exceeds limit %d (corrupt blob?)", nc, maxDecodeElems)
	}
	if err := need(off+4, nc, 8); err != nil {
		return dst, err
	}
	for i := 0; i < int(nc); i++ {
		if a, b := u32(off+4+8*i), u32(off+8+8*i); !inRange(a) || !inRange(b) {
			return dst, fmt.Errorf("mesh: constrained edge %d references vertex (%d,%d) out of range", i, int32(a), int32(b))
		}
	}

	vertex := func(v VertexID) geom.Point {
		o := vertOff + 16*int(v)
		return geom.Point{
			X: math.Float64frombits(binary.LittleEndian.Uint64(data[o:])),
			Y: math.Float64frombits(binary.LittleEndian.Uint64(data[o+8:])),
		}
	}
	isSuper := func(v VertexID) bool { return v == super[0] || v == super[1] || v == super[2] }
	dst = slices.Grow(dst, int(nt))
	for i := 0; i < int(nt); i++ {
		o := triOff + 12*i
		a, b, c := VertexID(u32(o)), VertexID(u32(o+4)), VertexID(u32(o+8))
		if isSuper(a) || isSuper(b) || isSuper(c) {
			continue
		}
		dst = append(dst, [3]geom.Point{vertex(a), vertex(b), vertex(c)})
	}
	return dst, nil
}
