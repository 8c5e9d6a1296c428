package mesh

import (
	"math/rand"
	"testing"

	"mrts/internal/geom"
)

// TestInsertPointSteadyStateAllocs pins the kernel's allocation-free
// insertion: once the mesh's storage and scratch have grown, inserting a
// point allocates nothing.
func TestInsertPointSteadyStateAllocs(t *testing.T) {
	const warm, runs = 2000, 500
	m := NewWithCapacity(warm+runs+8, 2*(warm+runs)+16)
	m.InitSuper(geom.NewRect(geom.Pt(0, 0), geom.Pt(1, 1)))
	rng := rand.New(rand.NewSource(7))
	hint := NoTri
	insert := func() {
		v, err := m.InsertPoint(geom.Pt(rng.Float64(), rng.Float64()), hint)
		if err != nil && err != ErrDuplicate {
			t.Fatal(err)
		}
		hint = m.IncidentTri(v)
	}
	for i := 0; i < warm; i++ {
		insert()
	}
	if allocs := testing.AllocsPerRun(runs, insert); allocs != 0 {
		t.Fatalf("InsertPoint allocates %.2f times per call in steady state, want 0", allocs)
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestEpochWrap drives the mark stamps through their wrap-around: stamps
// left from before the wrap must not read as marks after it, so a mesh
// whose stamp jumps to just below the limit halfway through must come out
// identical, IDs and neighbours included, to one whose stamp never wraps.
func TestEpochWrap(t *testing.T) {
	build := func(jump bool) *Mesh {
		m := New()
		m.InitSuper(geom.NewRect(geom.Pt(0, 0), geom.Pt(1, 1)))
		rng := rand.New(rand.NewSource(3))
		for i := 0; i < 400; i++ {
			if jump && i == 200 {
				m.epoch = ^uint16(0) - 5
			}
			if _, err := m.InsertPoint(geom.Pt(rng.Float64(), rng.Float64()), NoTri); err != nil && err != ErrDuplicate {
				t.Fatal(err)
			}
		}
		return m
	}
	plain, wrapped := build(false), build(true)
	if wrapped.epoch >= plain.epoch {
		t.Fatalf("epoch %d: the stamps never wrapped", wrapped.epoch)
	}
	if err := wrapped.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(plain.tris) != len(wrapped.tris) {
		t.Fatalf("%d triangle slots after the wrap, want %d", len(wrapped.tris), len(plain.tris))
	}
	for i := range plain.tris {
		if plain.alive[i] != wrapped.alive[i] || (plain.alive[i] && plain.tris[i] != wrapped.tris[i]) {
			t.Fatalf("triangle %d differs after the wrap: %+v vs %+v", i, wrapped.tris[i], plain.tris[i])
		}
	}
}
