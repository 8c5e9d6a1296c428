package mesh

import (
	"bytes"
	"testing"

	"mrts/internal/geom"
)

// FuzzDecodeFrom feeds arbitrary bytes to the decoder. Decoding followed by
// Validate must return errors for bad input, never panic.
func FuzzDecodeFrom(f *testing.F) {
	m := New()
	m.InitSuper(geom.NewRect(geom.Pt(0, 0), geom.Pt(1, 1)))
	for _, p := range []geom.Point{geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(1, 1), geom.Pt(0, 1), geom.Pt(0.4, 0.6)} {
		if _, err := m.InsertPoint(p, NoTri); err != nil {
			f.Fatal(err)
		}
	}
	if err := m.InsertSegment(3, 4); err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.EncodeTo(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		var m Mesh
		if err := m.DecodeFrom(bytes.NewReader(data)); err != nil {
			return
		}
		_ = m.Validate() // an error is fine; a panic is not
	})
}
