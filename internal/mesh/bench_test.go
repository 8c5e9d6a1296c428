package mesh_test

import (
	"bytes"
	"math/rand"
	"testing"

	"mrts/internal/delaunay"
	"mrts/internal/geom"
	"mrts/internal/mesh"
	"mrts/internal/workload"
)

func BenchmarkDelaunayInsert(b *testing.B) {
	m := mesh.New()
	m.InitSuper(geom.NewRect(geom.Pt(0, 0), geom.Pt(1, 1)))
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := geom.Pt(rng.Float64(), rng.Float64())
		if _, err := m.InsertPoint(p, mesh.NoTri); err != nil && err != mesh.ErrDuplicate {
			b.Fatal(err)
		}
	}
}

// refinedSquare returns the refined unit square the codec benchmarks use.
func refinedSquare(b *testing.B) *mesh.Mesh {
	b.Helper()
	m, _, err := delaunay.BuildCDT(workload.UnitSquare())
	if err != nil {
		b.Fatal(err)
	}
	if _, err := delaunay.Refine(m, delaunay.Options{MaxArea: 0.0002}); err != nil {
		b.Fatal(err)
	}
	return m
}

func BenchmarkMeshEncode(b *testing.B) {
	m := refinedSquare(b)
	b.ReportAllocs()
	b.SetBytes(int64(m.EncodedSize()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := m.EncodeTo(&buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMeshDecode(b *testing.B) {
	m := refinedSquare(b)
	var buf bytes.Buffer
	if err := m.EncodeTo(&buf); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.SetBytes(int64(buf.Len()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var m2 mesh.Mesh
		if err := m2.DecodeFrom(bytes.NewReader(buf.Bytes())); err != nil {
			b.Fatal(err)
		}
	}
}
