package delaunay_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"mrts/internal/delaunay"
	"mrts/internal/geom"
	"mrts/internal/mesh"
	"mrts/internal/workload"
)

// idExactDigest hashes a mesh's state as the kernel left it, not its
// geometry: the vertex table in VertexID order, then every live triangle's
// ID, corners and neighbours in TriID order. Two kernels agree on it only if
// they discover cavities in the same order, recycle the same triangle IDs
// and wire the same neighbours.
func idExactDigest(m *mesh.Mesh, st delaunay.Stats) string {
	h := sha256.New()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	put(uint64(st.SteinerPoints))
	put(uint64(st.SegmentSplits))
	put(uint64(st.Skipped))
	for v := 0; v < m.NumVertices(); v++ {
		p := m.Vertex(mesh.VertexID(v))
		put(math.Float64bits(p.X))
		put(math.Float64bits(p.Y))
	}
	m.ForEachTri(func(id mesh.TriID, tr mesh.Tri) {
		put(uint64(id))
		for k := 0; k < 3; k++ {
			put(uint64(tr.V[k]))
			put(uint64(tr.N[k]))
		}
	})
	return hex.EncodeToString(h.Sum(nil))
}

// TestRefineIDExactGolden pins the exact kernel state of fixed refinements:
// a change to cavity discovery order, ID recycling or neighbour wiring moves
// the digests even when the geometry (and so MeshHash) would not.
func TestRefineIDExactGolden(t *testing.T) {
	cases := []struct {
		name string
		pslg *delaunay.PSLG
		opts delaunay.Options
		want string
	}{
		{"square", workload.UnitSquare(), delaunay.Options{MaxArea: 0.001},
			"1adc4e3d42e2c611d51fa68111b1d4420a3ca14e731f0017d5df527df779de33"},
		{"holes-offcenters", workload.SquareWithHoles(3),
			delaunay.Options{MaxArea: 0.002, OffCenters: true},
			"20d85a7518b5dddaeb74580e03b7e1549c675f9ce5b0510dec5aa01a242da418"},
		{"gear-frozen", workload.Gear(7, 1, 0.6, geom.Pt(0, 0)),
			delaunay.Options{MaxArea: 0.003, NoSegmentSplit: true},
			"be47e0a8a61f4ae3ecbe0cc162fa96523870537991259578ef700aa758e812c8"},
	}
	for _, c := range cases {
		m, _, err := delaunay.BuildCDT(c.pslg)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		st, err := delaunay.Refine(m, c.opts)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := idExactDigest(m, st); got != c.want {
			t.Errorf("%s: digest %s, want %s (verts %d, tris %d, %+v)",
				c.name, got, c.want, m.NumVertices(), m.NumTriangles(), st)
		}
	}
}
