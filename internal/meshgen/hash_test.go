package meshgen

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"math"
	"sort"
	"testing"

	"mrts/internal/delaunay3"
	"mrts/internal/geom3"
	"mrts/internal/mesh"
	"mrts/internal/mesh3"
	"mrts/internal/workload"
)

// hashMeshReference is the canonical block digest computed the direct way:
// decode the blob into a Mesh, sort each triangle's corners and the
// triangle list with sort.Slice, and hash one coordinate at a time.
// hashMesh must produce the same bytes for every blob.
func hashMeshReference(data []byte) []byte {
	m := mesh.New()
	if err := m.DecodeFrom(bytes.NewReader(data)); err != nil {
		h := sha256.Sum256(append([]byte("undecodable:"), data...))
		return h[:]
	}
	type tri [6]float64
	var tris []tri
	m.ForEachTri(func(t mesh.TriID, _ mesh.Tri) {
		if m.HasSuperVertex(t) {
			return
		}
		g := m.Triangle(t)
		pts := [3][2]float64{{g.A.X, g.A.Y}, {g.B.X, g.B.Y}, {g.C.X, g.C.Y}}
		sort.Slice(pts[:], func(a, b int) bool {
			if pts[a][0] != pts[b][0] {
				return pts[a][0] < pts[b][0]
			}
			return pts[a][1] < pts[b][1]
		})
		tris = append(tris, tri{pts[0][0], pts[0][1], pts[1][0], pts[1][1], pts[2][0], pts[2][1]})
	})
	sort.Slice(tris, func(a, b int) bool {
		for k := 0; k < 6; k++ {
			if tris[a][k] != tris[b][k] {
				return tris[a][k] < tris[b][k]
			}
		}
		return false
	})
	h := sha256.New()
	var b [8]byte
	for _, tr := range tris {
		for _, v := range tr {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
	return h.Sum(nil)
}

// encodedBlock meshes block (i, j) of a blocks×blocks grid at the spacing
// for target elements and returns its encoding.
func encodedBlock(tb testing.TB, blocks, i, j, target int) []byte {
	tb.Helper()
	bm, err := meshBlock(blockRect(blocks, i, j), workload.UniformSizeFor(target, 1.0), 0)
	if err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	if err := bm.mesh.EncodeTo(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// hashCorpus returns small real block encodings plus truncated and
// corrupted variants. They stay small enough to seed the fuzzer, whose
// mutator stalls on inputs of a full-size block.
func hashCorpus(tb testing.TB) [][]byte {
	blobs := [][]byte{
		encodedBlock(tb, 4, 0, 0, 20_000),
		encodedBlock(tb, 2, 1, 1, 500),
		{},
	}
	// An unrefined CDT still carrying its super triangle: the super-vertex
	// filter must drop the same triangles.
	m := mesh.New()
	m.InitSuper(blockRect(1, 0, 0))
	for _, p := range boundaryPoints(blockRect(1, 0, 0), 0.25) {
		if _, err := m.InsertPoint(p, mesh.NoTri); err != nil {
			tb.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := m.EncodeTo(&buf); err != nil {
		tb.Fatal(err)
	}
	blobs = append(blobs, buf.Bytes())

	small := blobs[1]
	for _, n := range []int{1, 4, 11, 12, 40, len(small) / 2, len(small) - 9, len(small) - 1} {
		blobs = append(blobs, small[:n])
	}
	for _, off := range []int{0, 4, 8, 12, 20, len(small) - 40, len(small) - 12, len(small) - 4} {
		for _, v := range []uint32{0, 0x7fffffff, 0xffffffff, 1 << 24, 1<<24 + 1} {
			c := bytes.Clone(small)
			binary.LittleEndian.PutUint32(c[off:], v)
			blobs = append(blobs, c)
		}
	}
	// Trailing bytes after a complete blob are ignored by both readers.
	blobs = append(blobs, append(bytes.Clone(small), 1, 2, 3))
	return blobs
}

func TestHashMeshMatchesReference(t *testing.T) {
	// A 12×12 block at the spacing of a 1.2M-element run.
	full := encodedBlock(t, 12, 5, 7, 1_200_000)
	for i, b := range append(hashCorpus(t), full) {
		if got, want := hashMesh(b), hashMeshReference(b); !bytes.Equal(got, want) {
			t.Errorf("blob %d (%d bytes): digest %x, reference %x", i, len(b), got, want)
		}
	}
}

// FuzzHashMesh checks the in-place reader against a full decode: it must
// accept exactly the blobs DecodeFrom accepts, and the digests must agree.
func FuzzHashMesh(f *testing.F) {
	for _, b := range hashCorpus(f) {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		_, walkErr := mesh.AppendEncodedTriangles(nil, data)
		decodeErr := mesh.New().DecodeFrom(bytes.NewReader(data))
		if (walkErr == nil) != (decodeErr == nil) {
			t.Fatalf("AppendEncodedTriangles err = %v, DecodeFrom err = %v", walkErr, decodeErr)
		}
		if got, want := hashMesh(data), hashMeshReference(data); !bytes.Equal(got, want) {
			t.Fatalf("digest %x, reference %x", got, want)
		}
	})
}

func BenchmarkHashMesh(b *testing.B) {
	data := encodedBlock(b, 12, 5, 7, 1_200_000)
	b.ReportAllocs()
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hashMesh(data)
	}
}

// TestEncodeMeshExactCapacity: the bytes a resident block keeps are a
// valid encoding with no spare capacity behind them, for every encodeMesh
// caller: the OUPDR and S-UPDR block mesh, the ONUPDR leaf mesh and the
// OUPDR-3D tetrahedral block.
func TestEncodeMeshExactCapacity(t *testing.T) {
	exact := func(t *testing.T, m encodable) []byte {
		t.Helper()
		got, err := encodeMesh(m)
		if err != nil {
			t.Fatal(err)
		}
		if n := m.EncodedSize(); len(got) != n || cap(got) != n {
			t.Fatalf("len %d cap %d, want both %d", len(got), cap(got), n)
		}
		return got
	}
	t.Run("block", func(t *testing.T) {
		bm, err := meshBlock(blockRect(12, 5, 7), workload.UniformSizeFor(1_200_000, 1.0), 0)
		if err != nil {
			t.Fatal(err)
		}
		got := exact(t, bm.mesh)
		if h, want := hashMesh(got), hashMesh(encodedBlock(t, 12, 5, 7, 1_200_000)); !bytes.Equal(h, want) {
			t.Fatalf("digest %x, want %x", h, want)
		}
	})
	t.Run("leaf", func(t *testing.T) {
		h := workload.UniformSizeFor(200_000, 1.0)
		m, _, err := meshLeaf(blockRect(12, 5, 7), workload.Uniform(h), 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		got := exact(t, m)
		back := mesh.New()
		if err := back.DecodeFrom(bytes.NewReader(got)); err != nil || back.NumTriangles() != m.NumTriangles() {
			t.Fatalf("decode: %d triangles, %v; want %d", back.NumTriangles(), err, m.NumTriangles())
		}
	})
	t.Run("block3", func(t *testing.T) {
		box := geom3.Box{Min: geom3.Pt(0, 0, 0), Max: geom3.Pt(1, 1, 1)}
		m, err := delaunay3.NewBoxMesh(box)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := delaunay3.Refine(m, box, delaunay3.Options{
			Size: func(geom3.Point) float64 { return 0.25 },
		}); err != nil {
			t.Fatal(err)
		}
		got := exact(t, m)
		back := mesh3.New()
		if err := back.DecodeFrom(bytes.NewReader(got)); err != nil || back.NumTets() != m.NumTets() {
			t.Fatalf("decode: %d tets, %v; want %d", back.NumTets(), err, m.NumTets())
		}
	})
}
