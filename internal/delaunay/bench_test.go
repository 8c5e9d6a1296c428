package delaunay_test

import (
	"testing"

	"mrts/internal/delaunay"
	"mrts/internal/workload"
)

func BenchmarkRuppertRefine(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m, _, err := delaunay.BuildCDT(workload.UnitSquare())
		if err != nil {
			b.Fatal(err)
		}
		if _, err := delaunay.Refine(m, delaunay.Options{MaxArea: 0.0002}); err != nil {
			b.Fatal(err)
		}
	}
}
