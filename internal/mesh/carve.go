package mesh

// Carve removes the exterior of the domain: every triangle reachable from a
// super-triangle vertex without crossing a constrained edge is deleted, and
// the super vertices are forgotten. After Carve the triangulation is bounded
// by constrained segments only (its hull edges are exactly the domain
// boundary), which is the invariant the refinement engine relies on.
//
// Domains with holes are handled by CarveFrom with interior hole seeds.
func (m *Mesh) Carve() {
	var seeds []TriID
	for i := range m.tris {
		if m.alive[i] && m.HasSuperVertex(TriID(i)) {
			seeds = append(seeds, TriID(i))
		}
	}
	m.CarveFrom(seeds)
	m.super = [3]VertexID{NoVertex, NoVertex, NoVertex}
}

// CarveFrom deletes every triangle reachable from the seed triangles without
// crossing a constrained edge. Triangles die in discovery order, so the IDs
// later insertions recycle are deterministic.
func (m *Mesh) CarveFrom(seeds []TriID) {
	ep := m.newEpoch()
	kill, stack := m.cavity[:0], m.stack[:0]
	for _, s := range seeds {
		if s != NoTri && m.alive[s] && m.marks[s] != ep {
			m.marks[s] = ep
			kill = append(kill, s)
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
			m.marks[n] = ep
			kill = append(kill, n)
			stack = append(stack, n)
		}
	}
	// Unlink neighbors pointing into the killed region, then delete.
	for _, t := range kill {
		tr := m.tris[t]
		for i := 0; i < 3; i++ {
			n := tr.N[i]
			if n == NoTri || m.marks[n] == ep {
				continue
			}
			for j := 0; j < 3; j++ {
				if m.tris[n].N[j] == t {
					m.tris[n].N[j] = NoTri
				}
			}
		}
	}
	for _, t := range kill {
		m.killTri(t)
	}
	m.cavity, m.stack = kill[:0], stack[:0]
}
