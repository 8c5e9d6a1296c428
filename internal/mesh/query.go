package mesh

// IncidentTriangles returns all live triangles incident to v, in ring order
// (open fans at the hull are still fully covered). Returns nil if v has no
// incident triangle.
func (m *Mesh) IncidentTriangles(v VertexID) []TriID {
	return m.AppendIncidentTriangles(nil, v)
}

// AppendIncidentTriangles appends the triangles IncidentTriangles would
// return to dst and returns the extended slice.
func (m *Mesh) AppendIncidentTriangles(dst []TriID, v VertexID) []TriID {
	start := m.IncidentTri(v)
	if start == NoTri {
		return dst
	}
	ring, err := m.triangleRing(v, start, dst)
	if err != nil {
		return dst
	}
	return ring
}

// EdgeTriangles returns the one or two live triangles having edge (a, b).
// Returns nil if (a, b) is not an edge of the triangulation.
func (m *Mesh) EdgeTriangles(a, b VertexID) []TriID {
	t := m.findEdge(a, b)
	if t == NoTri {
		return nil
	}
	out := []TriID{t}
	if i := m.edgeIndex(t, a, b); i >= 0 {
		if n := m.tris[t].N[i]; n != NoTri {
			out = append(out, n)
		}
	}
	return out
}

// VertexDegree returns the number of triangles incident to v.
func (m *Mesh) VertexDegree(v VertexID) int { return len(m.IncidentTriangles(v)) }
