package mesh

import (
	"bytes"
	"math/rand"
	"testing"

	"mrts/internal/geom"
)

// buildRandom builds a Delaunay triangulation of n random points in the unit
// square (plus the super triangle).
func buildRandom(t *testing.T, n int, seed int64) *Mesh {
	t.Helper()
	m := New()
	m.InitSuper(geom.NewRect(geom.Pt(0, 0), geom.Pt(1, 1)))
	rng := rand.New(rand.NewSource(seed))
	hint := NoTri
	for i := 0; i < n; i++ {
		p := geom.Pt(rng.Float64(), rng.Float64())
		v, err := m.InsertPoint(p, hint)
		if err != nil && err != ErrDuplicate {
			t.Fatalf("insert %v: %v", p, err)
		}
		if v != NoVertex {
			hint = m.IncidentTri(v)
		}
	}
	return m
}

func TestInsertBasic(t *testing.T) {
	m := New()
	m.InitSuper(geom.NewRect(geom.Pt(0, 0), geom.Pt(1, 1)))
	if m.NumTriangles() != 1 {
		t.Fatalf("after InitSuper: %d triangles", m.NumTriangles())
	}
	v, err := m.InsertPoint(geom.Pt(0.5, 0.5), NoTri)
	if err != nil {
		t.Fatal(err)
	}
	if m.NumTriangles() != 3 {
		t.Fatalf("after one insert: %d triangles, want 3", m.NumTriangles())
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	// Duplicate.
	v2, err := m.InsertPoint(geom.Pt(0.5, 0.5), NoTri)
	if err != ErrDuplicate {
		t.Fatalf("duplicate insert: err = %v", err)
	}
	if v2 != v {
		t.Fatalf("duplicate insert returned %d, want %d", v2, v)
	}
}

func TestInsertOutside(t *testing.T) {
	m := New()
	m.InitSuper(geom.NewRect(geom.Pt(0, 0), geom.Pt(1, 1)))
	// Way beyond the super triangle.
	if _, err := m.InsertPoint(geom.Pt(1e9, 1e9), NoTri); err != ErrOutside {
		t.Fatalf("err = %v, want ErrOutside", err)
	}
}

func TestInsertOnEdge(t *testing.T) {
	m := New()
	m.InitSuper(geom.NewRect(geom.Pt(0, 0), geom.Pt(4, 4)))
	a, _ := m.InsertPoint(geom.Pt(0, 0), NoTri)
	b, _ := m.InsertPoint(geom.Pt(4, 0), NoTri)
	if _, err := m.InsertPoint(geom.Pt(2, 2), NoTri); err != nil {
		t.Fatal(err)
	}
	// (a, b) should be an edge; insert its midpoint, exactly on the edge.
	if !m.HasEdge(a, b) {
		t.Fatal("expected edge (a,b)")
	}
	if _, err := m.InsertPoint(geom.Pt(2, 0), NoTri); err != nil {
		t.Fatalf("on-edge insert: %v", err)
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := m.CheckDelaunay(); err != nil {
		t.Fatal(err)
	}
}

func TestRandomDelaunay(t *testing.T) {
	for _, n := range []int{10, 100, 500} {
		m := buildRandom(t, n, int64(n))
		if err := m.Validate(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if err := m.CheckDelaunay(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		// Euler: for a triangulation of V vertices with hull size 3 (the
		// super triangle), triangles = 2V - 2 - 3 = 2V - 5.
		wantTris := 2*m.NumVertices() - 5
		if m.NumTriangles() != wantTris {
			t.Fatalf("n=%d: %d triangles, want %d", n, m.NumTriangles(), wantTris)
		}
	}
}

func TestGridPointsDegenerate(t *testing.T) {
	// Cocircular grid points stress the exact predicates.
	m := New()
	m.InitSuper(geom.NewRect(geom.Pt(0, 0), geom.Pt(8, 8)))
	for i := 0; i <= 8; i++ {
		for j := 0; j <= 8; j++ {
			_, err := m.InsertPoint(geom.Pt(float64(i), float64(j)), NoTri)
			if err != nil && err != ErrDuplicate {
				t.Fatalf("grid insert (%d,%d): %v", i, j, err)
			}
		}
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := m.CheckDelaunay(); err != nil {
		t.Fatal(err)
	}
}

func TestLocateModes(t *testing.T) {
	m := buildRandom(t, 50, 1)
	// Existing vertex.
	p := m.Vertex(5)
	loc := m.Locate(p, NoTri)
	if loc.Kind != LocateOnVert || loc.Vert != 5 {
		t.Fatalf("Locate(vertex) = %+v", loc)
	}
	// Interior point of some triangle.
	var tid TriID = NoTri
	m.ForEachTri(func(id TriID, tr Tri) {
		if tid == NoTri && !m.HasSuperVertex(id) {
			tid = id
		}
	})
	c := m.Triangle(tid).Centroid()
	loc = m.Locate(c, NoTri)
	if loc.Kind != LocateInside {
		t.Fatalf("Locate(centroid) = %+v", loc)
	}
	if !m.Triangle(loc.Tri).ContainsPoint(c) {
		t.Fatal("located triangle does not contain the point")
	}
}

func TestInsertSegmentAndFlip(t *testing.T) {
	m := New()
	m.InitSuper(geom.NewRect(geom.Pt(0, 0), geom.Pt(10, 10)))
	// A quad where the Delaunay diagonal will be (c, d), then force (a, b).
	a, _ := m.InsertPoint(geom.Pt(0, 5), NoTri)
	b, _ := m.InsertPoint(geom.Pt(10, 5), NoTri)
	if _, err := m.InsertPoint(geom.Pt(5, 0.5), NoTri); err != nil {
		t.Fatal(err)
	}
	if _, err := m.InsertPoint(geom.Pt(5, 9.5), NoTri); err != nil {
		t.Fatal(err)
	}
	if m.HasEdge(a, b) {
		t.Skip("Delaunay already contains (a,b); geometry assumption broken")
	}
	if err := m.InsertSegment(a, b); err != nil {
		t.Fatal(err)
	}
	if !m.HasEdge(a, b) {
		t.Fatal("segment not recovered")
	}
	if !m.IsConstrained(a, b) {
		t.Fatal("segment not marked constrained")
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestInsertSegmentLong(t *testing.T) {
	// Force a segment across many random points.
	m := New()
	m.InitSuper(geom.NewRect(geom.Pt(0, 0), geom.Pt(1, 1)))
	a, _ := m.InsertPoint(geom.Pt(0.001, 0.5001), NoTri)
	b, _ := m.InsertPoint(geom.Pt(0.999, 0.5002), NoTri)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 200; i++ {
		p := geom.Pt(rng.Float64(), rng.Float64())
		if _, err := m.InsertPoint(p, NoTri); err != nil && err != ErrDuplicate {
			t.Fatal(err)
		}
	}
	if err := m.InsertSegment(a, b); err != nil {
		t.Fatal(err)
	}
	if !m.HasEdge(a, b) || !m.IsConstrained(a, b) {
		t.Fatal("long segment not recovered")
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSplitConstrainedEdge(t *testing.T) {
	m := New()
	m.InitSuper(geom.NewRect(geom.Pt(0, 0), geom.Pt(10, 10)))
	a, _ := m.InsertPoint(geom.Pt(1, 5), NoTri)
	b, _ := m.InsertPoint(geom.Pt(9, 5), NoTri)
	if _, err := m.InsertPoint(geom.Pt(5, 1), NoTri); err != nil {
		t.Fatal(err)
	}
	if _, err := m.InsertPoint(geom.Pt(5, 9), NoTri); err != nil {
		t.Fatal(err)
	}
	if err := m.InsertSegment(a, b); err != nil {
		t.Fatal(err)
	}
	mid := m.Vertex(a).Mid(m.Vertex(b))
	v, err := m.InsertPoint(mid, NoTri)
	if err != nil {
		t.Fatalf("midpoint insert: %v", err)
	}
	if m.IsConstrained(a, b) {
		t.Error("original segment should no longer be constrained")
	}
	if !m.IsConstrained(a, v) || !m.IsConstrained(v, b) {
		t.Error("halves should be constrained")
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestCrossingConstraintRejected(t *testing.T) {
	m := New()
	m.InitSuper(geom.NewRect(geom.Pt(0, 0), geom.Pt(10, 10)))
	a, _ := m.InsertPoint(geom.Pt(1, 5), NoTri)
	b, _ := m.InsertPoint(geom.Pt(9, 5), NoTri)
	c, _ := m.InsertPoint(geom.Pt(5, 1), NoTri)
	d, _ := m.InsertPoint(geom.Pt(5, 9), NoTri)
	if err := m.InsertSegment(a, b); err != nil {
		t.Fatal(err)
	}
	if err := m.InsertSegment(c, d); err != ErrCrossConstrain {
		t.Fatalf("crossing segment: err = %v, want ErrCrossConstrain", err)
	}
}

// carveSquare builds a CDT of the unit square with constrained boundary and
// carves the exterior.
func carveSquare(t *testing.T, interior int, seed int64) *Mesh {
	t.Helper()
	m := New()
	m.InitSuper(geom.NewRect(geom.Pt(0, 0), geom.Pt(1, 1)))
	corners := []geom.Point{geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(1, 1), geom.Pt(0, 1)}
	ids := make([]VertexID, 4)
	for i, p := range corners {
		v, err := m.InsertPoint(p, NoTri)
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = v
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < interior; i++ {
		p := geom.Pt(0.05+0.9*rng.Float64(), 0.05+0.9*rng.Float64())
		if _, err := m.InsertPoint(p, NoTri); err != nil && err != ErrDuplicate {
			t.Fatal(err)
		}
	}
	for i := range ids {
		if err := m.InsertSegment(ids[i], ids[(i+1)%4]); err != nil {
			t.Fatal(err)
		}
	}
	m.Carve()
	return m
}

func TestCarve(t *testing.T) {
	m := carveSquare(t, 100, 7)
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	// No super-vertex triangles must remain, and every hull edge must be
	// constrained.
	m.ForEachTri(func(id TriID, tr Tri) {
		for k := 0; k < 3; k++ {
			if tr.N[k] == NoTri {
				a := tr.V[(k+1)%3]
				b := tr.V[(k+2)%3]
				if !m.IsConstrained(a, b) {
					t.Errorf("hull edge (%d,%d) not constrained", a, b)
				}
			}
		}
	})
	// Total area of live triangles should equal the square's area.
	var area float64
	m.ForEachTri(func(id TriID, tr Tri) { area += m.Triangle(id).Area() })
	if area < 0.999 || area > 1.001 {
		t.Errorf("carved area = %v, want 1.0", area)
	}
}

func TestEncodeDecodeRoundtrip(t *testing.T) {
	m := carveSquare(t, 60, 11)
	var buf bytes.Buffer
	if err := m.EncodeTo(&buf); err != nil {
		t.Fatal(err)
	}
	if got, want := buf.Len(), m.EncodedSize(); got != want {
		t.Errorf("EncodedSize = %d, actual = %d", want, got)
	}
	var m2 Mesh
	if err := m2.DecodeFrom(&buf); err != nil {
		t.Fatal(err)
	}
	if m2.NumTriangles() != m.NumTriangles() {
		t.Errorf("triangles: got %d want %d", m2.NumTriangles(), m.NumTriangles())
	}
	if m2.NumVertices() != m.NumVertices() {
		t.Errorf("vertices: got %d want %d", m2.NumVertices(), m.NumVertices())
	}
	if m2.NumConstrained() != m.NumConstrained() {
		t.Errorf("constraints: got %d want %d", m2.NumConstrained(), m.NumConstrained())
	}
	if err := m2.Validate(); err != nil {
		t.Fatal(err)
	}
	// Vertex positions preserved exactly.
	for i := 0; i < m.NumVertices(); i++ {
		if !m.Vertex(VertexID(i)).Eq(m2.Vertex(VertexID(i))) {
			t.Fatalf("vertex %d moved", i)
		}
	}
	// Total area preserved.
	var a1, a2 float64
	m.ForEachTri(func(id TriID, tr Tri) { a1 += m.Triangle(id).Area() })
	m2.ForEachTri(func(id TriID, tr Tri) { a2 += m2.Triangle(id).Area() })
	if d := a1 - a2; d > 1e-12 || d < -1e-12 {
		t.Errorf("area changed: %v vs %v", a1, a2)
	}
}

// TestEncodeDeterministic: one mesh always encodes to the same bytes, with
// enough constrained edges that map iteration order would show.
func TestEncodeDeterministic(t *testing.T) {
	m := New()
	m.InitSuper(geom.NewRect(geom.Pt(0, 0), geom.Pt(1, 1)))
	// 16 vertices around the unit square's boundary, joined by segments.
	var ring []VertexID
	for side := 0; side < 4; side++ {
		for k := 0; k < 4; k++ {
			f := float64(k) / 4
			p := [4]geom.Point{geom.Pt(f, 0), geom.Pt(1, f), geom.Pt(1-f, 1), geom.Pt(0, 1-f)}[side]
			v, err := m.InsertPoint(p, NoTri)
			if err != nil {
				t.Fatal(err)
			}
			ring = append(ring, v)
		}
	}
	for i := range ring {
		if err := m.InsertSegment(ring[i], ring[(i+1)%len(ring)]); err != nil {
			t.Fatal(err)
		}
	}
	if n := m.NumConstrained(); n <= 8 {
		t.Fatalf("%d constrained edges, want more than 8", n)
	}
	var first bytes.Buffer
	if err := m.EncodeTo(&first); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		var again bytes.Buffer
		if err := m.EncodeTo(&again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again.Bytes(), first.Bytes()) {
			t.Fatalf("encoding %d differs from the first", i+1)
		}
	}
}

func TestDecodeBadMagic(t *testing.T) {
	var m Mesh
	if err := m.DecodeFrom(bytes.NewReader([]byte{1, 2, 3, 4, 5, 6, 7, 8})); err == nil {
		t.Fatal("expected error on bad magic")
	}
}

func TestEncodedSizeEmpty(t *testing.T) {
	m := New()
	var buf bytes.Buffer
	if err := m.EncodeTo(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != m.EncodedSize() {
		t.Fatalf("empty mesh: EncodedSize=%d actual=%d", m.EncodedSize(), buf.Len())
	}
}

func TestFlipPreservesValidity(t *testing.T) {
	m := New()
	m.InitSuper(geom.NewRect(geom.Pt(0, 0), geom.Pt(2, 2)))
	a, _ := m.InsertPoint(geom.Pt(0, 1), NoTri)
	b, _ := m.InsertPoint(geom.Pt(2, 1), NoTri)
	if _, err := m.InsertPoint(geom.Pt(1, 0), NoTri); err != nil {
		t.Fatal(err)
	}
	if _, err := m.InsertPoint(geom.Pt(1, 2), NoTri); err != nil {
		t.Fatal(err)
	}
	// Find an interior flippable edge and flip it back and forth.
	var ft TriID = NoTri
	var fi int
	m.ForEachTri(func(id TriID, tr Tri) {
		if ft != NoTri {
			return
		}
		for k := 0; k < 3; k++ {
			if tr.N[k] == NoTri {
				continue
			}
			ea := tr.V[(k+1)%3]
			eb := tr.V[(k+2)%3]
			// Need the quad strictly convex: check with a trial flip by
			// picking the known convex configuration (a..b quad).
			if (ea == a && eb == b) || (ea == b && eb == a) {
				ft, fi = id, k
			}
		}
	})
	if ft == NoTri {
		t.Skip("no (a,b) edge in this configuration")
	}
	t1, t2 := m.Flip(ft, fi)
	if err := m.Validate(); err != nil {
		t.Fatalf("after flip: %v", err)
	}
	if m.HasEdge(a, b) {
		t.Fatal("edge (a,b) should be gone after flip")
	}
	_ = t1
	_ = t2
}

func TestTriangleRingClosedAndOpen(t *testing.T) {
	m := carveSquare(t, 30, 5)
	// A hull (corner) vertex has an open fan; an interior vertex a closed
	// ring. Find one of each and check the ring contains exactly the
	// triangles incident to the vertex.
	count := func(v VertexID) int {
		n := 0
		m.ForEachTri(func(id TriID, tr Tri) {
			for k := 0; k < 3; k++ {
				if tr.V[k] == v {
					n++
				}
			}
		})
		return n
	}
	checked := 0
	for vi := 0; vi < m.NumVertices() && checked < 10; vi++ {
		v := VertexID(vi)
		start := m.IncidentTri(v)
		if start == NoTri {
			continue // super vertices have no triangles after carving
		}
		ring, err := m.triangleRing(v, start, nil)
		if err != nil {
			t.Fatalf("ring(%d): %v", v, err)
		}
		if len(ring) != count(v) {
			t.Fatalf("ring(%d): %d triangles, want %d", v, len(ring), count(v))
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no vertices checked")
	}
}
