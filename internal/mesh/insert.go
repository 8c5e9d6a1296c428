package mesh

import "mrts/internal/geom"

// InsertPoint inserts p into the triangulation using the Bowyer–Watson
// cavity algorithm and returns the new vertex ID. hint is a triangle to
// start point location from (NoTri is allowed).
//
// If p coincides with an existing vertex, that vertex is returned together
// with ErrDuplicate. If p falls on a constrained edge, the edge is split:
// both halves are marked constrained.
//
// The cavity search never crosses constrained edges, so inserting a point
// strictly inside a region bounded by constrained segments only retriangulates
// that region — the property the subdomain-local refinement of UPDR/NUPDR and
// PCDM relies on.
func (m *Mesh) InsertPoint(p geom.Point, hint TriID) (VertexID, error) {
	return m.insertLocated(p, m.Locate(p, hint))
}

// SplitEdge inserts the midpoint of the existing edge (a, b) by a purely
// topological seed (no point location), which is robust even when the
// floating-point midpoint falls a few ulps off the segment — the common case
// for boundary segments of non-axis-aligned domains. If the edge is
// constrained both halves end up constrained.
func (m *Mesh) SplitEdge(a, b VertexID) (VertexID, error) {
	t := m.findEdge(a, b)
	if t == NoTri {
		return NoVertex, ErrNoPath
	}
	mid := m.verts[a].Mid(m.verts[b])
	if mid.Eq(m.verts[a]) || mid.Eq(m.verts[b]) {
		return NoVertex, ErrDuplicate // edge too short to split in float64
	}
	i := m.edgeIndex(t, a, b)
	return m.insertLocated(mid, Location{Kind: LocateOnEdge, Tri: t, Edge: i})
}

func (m *Mesh) insertLocated(p geom.Point, loc Location) (VertexID, error) {
	switch loc.Kind {
	case LocateFailed:
		return NoVertex, ErrOutside
	case LocateOnVert:
		return loc.Vert, ErrDuplicate
	}

	var (
		splitA, splitB VertexID = NoVertex, NoVertex
		excludeEdge    edgeKey
		hasExclude     bool
	)
	seeds := [2]TriID{loc.Tri, NoTri}
	if loc.Kind == LocateOnEdge {
		tr := m.tris[loc.Tri]
		a := tr.V[(loc.Edge+1)%3]
		b := tr.V[(loc.Edge+2)%3]
		if m.IsConstrained(a, b) {
			// Split a constrained segment: temporarily unmark it so the
			// cavity may span both sides, and remember to mark the halves.
			splitA, splitB = a, b
			m.SetConstrained(a, b, false)
			excludeEdge, hasExclude = mkEdge(a, b), true
		}
		seeds[1] = tr.N[loc.Edge]
	}

	// Grow the cavity: triangles whose circumcircle strictly contains p,
	// reached without crossing constrained edges. The cavity is kept as an
	// ordered list (discovery order) so that retriangulation — and hence
	// everything downstream of it — is deterministic. Cavity members are
	// marked with this insertion's epoch.
	ep := m.newEpoch()
	cavity, stack := m.cavity[:0], m.stack[:0]
	for _, s := range seeds {
		if s != NoTri && m.marks[s] != ep {
			m.marks[s] = ep
			cavity = append(cavity, s)
			stack = append(stack, s)
		}
	}
	for len(stack) > 0 {
		t := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		tr := m.tris[t]
		for i := 0; i < 3; i++ {
			n := tr.N[i]
			if n == NoTri || m.marks[n] == ep {
				continue
			}
			a := tr.V[(i+1)%3]
			b := tr.V[(i+2)%3]
			if m.IsConstrained(a, b) {
				continue
			}
			if m.Triangle(n).CircumcircleContains(p) {
				m.marks[n] = ep
				cavity = append(cavity, n)
				stack = append(stack, n)
			}
		}
	}

	// Collect cavity boundary edges (a, b) with the outside triangle, CCW
	// as seen from inside the cavity. The edge being split (if any) is
	// excluded: p lies on it, so it contributes the two hull edges (a,p),
	// (p,b) instead of a degenerate fan triangle.
	boundary := m.boundary[:0]
	for _, t := range cavity {
		tr := m.tris[t]
		for i := 0; i < 3; i++ {
			a := tr.V[(i+1)%3]
			b := tr.V[(i+2)%3]
			n := tr.N[i]
			if n != NoTri && m.marks[n] == ep {
				continue
			}
			if hasExclude && mkEdge(a, b) == excludeEdge {
				continue
			}
			boundary = append(boundary, bedge{a, b, n})
		}
	}

	v := m.addVertex(p)

	for _, t := range cavity {
		m.killTri(t)
	}

	// Retriangulate: fan of (v, a, b) triangles. Wire internal edges via
	// the boundary chain: the neighbour across (b, v) is the fan triangle
	// whose base starts at b, the one across (v, a) the fan triangle whose
	// base ends at a. Should a vertex start (or end) several bases, the
	// last one in boundary order is taken.
	created := m.created[:0]
	for _, e := range boundary {
		created = append(created, m.newTri(v, e.a, e.b))
	}
	for i, e := range boundary {
		t := created[i]
		m.tris[t].N[0] = NoTri
		if e.out != NoTri {
			m.link(t, 0, e.out)
		}
		next, prev := NoTri, NoTri
		for j := len(boundary) - 1; j >= 0 && (next == NoTri || prev == NoTri); j-- {
			if next == NoTri && boundary[j].a == e.b {
				next = created[j]
			}
			if prev == NoTri && boundary[j].b == e.a {
				prev = created[j]
			}
		}
		m.tris[t].N[1] = next // edge (b, v)
		m.tris[t].N[2] = prev // edge (v, a)
	}
	m.cavity, m.stack, m.boundary, m.created = cavity[:0], stack[:0], boundary[:0], created[:0]

	if splitA != NoVertex {
		m.SetConstrained(splitA, v, true)
		m.SetConstrained(v, splitB, true)
		if m.splitHook != nil {
			m.splitHook(m.verts[splitA], m.verts[splitB], p)
		}
	}
	return v, nil
}

// InsertVertexAt adds p as a vertex without touching the triangulation.
// It is used when assembling meshes from serialized parts.
func (m *Mesh) InsertVertexAt(p geom.Point) VertexID { return m.addVertex(p) }

// AppendCavitySegments appends to dst, in discovery order, the constrained
// edges on the boundary of the Bowyer–Watson cavity that inserting p would
// carve when grown from triangle t (which must contain p), and returns the
// extended slice. The mesh is not changed.
func (m *Mesh) AppendCavitySegments(dst [][2]VertexID, p geom.Point, t TriID) [][2]VertexID {
	ep := m.newEpoch()
	m.marks[t] = ep
	stack := append(m.stack[:0], t)
	for len(stack) > 0 {
		t := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		tr := m.tris[t]
		for i := 0; i < 3; i++ {
			a := tr.V[(i+1)%3]
			b := tr.V[(i+2)%3]
			n := tr.N[i]
			if m.IsConstrained(a, b) {
				dst = append(dst, [2]VertexID{a, b})
				continue
			}
			if n == NoTri || m.marks[n] == ep {
				continue
			}
			if m.Triangle(n).CircumcircleContains(p) {
				m.marks[n] = ep
				stack = append(stack, n)
			}
		}
	}
	m.stack = stack[:0]
	return dst
}
