package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"runtime/metrics"
	"time"

	"mrts/internal/mesh"
	"mrts/internal/meshgen"
	"mrts/internal/meshstore"
)

// blockMeshOffset is where a stored block payload's mesh encoding starts:
// the block object writes its rectangle (4 float64), H and Beta (2 float64)
// and its Right/Top pointers (2 × 8 bytes) first, then the mesh bytes with
// a u32 length prefix. A change to that layout fails the decode below and
// with it the iteration.
const blockMeshOffset = 4*8 + 2*8 + 2*8

// blockMesh returns the mesh encoding inside a stored block payload.
func blockMesh(payload []byte) ([]byte, error) {
	if len(payload) < blockMeshOffset+4 {
		return nil, fmt.Errorf("payload of %d bytes has no mesh", len(payload))
	}
	n := int(binary.LittleEndian.Uint32(payload[blockMeshOffset:]))
	body := payload[blockMeshOffset+4:]
	if n > len(body) {
		return nil, fmt.Errorf("mesh length %d exceeds payload", n)
	}
	return body[:n], nil
}

// codecStage decodes, validates and re-encodes the mesh of every block the
// S-UPDR run exported: the blocks the runtime actually swaps, not a test
// mesh. It times decode and encode, counts decode allocations, records the
// smallest triangle angle, and cross-checks each payload's canonical digest
// against the store index.
func codecStage(s sample, dir string) error {
	st, err := meshstore.Open(dir)
	if err != nil {
		return fmt.Errorf("codec stage: %w", err)
	}
	defer st.Close()
	recs := st.Manifest().Records()
	blocks := st.Manifest().Meta.Blocks
	meshes := make([][]byte, 0, len(recs))
	for _, rec := range recs {
		payload, _, err := st.Payload(rec.Key)
		if err != nil {
			return fmt.Errorf("codec stage: %w", err)
		}
		d, err := meshgen.DecodeExportedBlock(payload, blocks)
		if err != nil {
			return fmt.Errorf("codec stage: block %s: %w", rec.Key, err)
		}
		if d.Hash != rec.Hash || d.Elements != rec.Elements {
			return fmt.Errorf("codec stage: block %s decodes to %d elements hash %s, index says %d %s",
				rec.Key, d.Elements, d.Hash, rec.Elements, rec.Hash)
		}
		m, err := blockMesh(payload)
		if err != nil {
			return fmt.Errorf("codec stage: block %s: %w", rec.Key, err)
		}
		meshes = append(meshes, m)
	}

	allocs := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(allocs)
	a0 := allocs[0].Value.Uint64()
	decoded := make([]*mesh.Mesh, len(meshes))
	var raw int
	t0 := time.Now()
	for i, b := range meshes {
		m := mesh.New()
		if err := m.DecodeFrom(bytes.NewReader(b)); err != nil {
			return fmt.Errorf("codec stage: decode block %s: %w", recs[i].Key, err)
		}
		decoded[i] = m
		raw += len(b)
	}
	dec := time.Since(t0)
	metrics.Read(allocs)
	a1 := allocs[0].Value.Uint64()

	minAngle := math.Inf(1)
	for i, m := range decoded {
		if err := m.Validate(); err != nil {
			return fmt.Errorf("codec stage: block %s: %w", recs[i].Key, err)
		}
		m.ForEachTri(func(t mesh.TriID, _ mesh.Tri) {
			if !m.HasSuperVertex(t) {
				minAngle = math.Min(minAngle, m.Triangle(t).MinAngle())
			}
		})
	}

	var out bytes.Buffer
	var enc time.Duration
	for i, m := range decoded {
		out.Reset()
		out.Grow(len(meshes[i]))
		t0 := time.Now()
		if err := m.EncodeTo(&out); err != nil {
			return fmt.Errorf("codec stage: encode block %s: %w", recs[i].Key, err)
		}
		enc += time.Since(t0)
		// The bytes themselves may differ: constraints are encoded in map
		// order. Their length may not.
		if out.Len() != len(meshes[i]) {
			return fmt.Errorf("codec stage: block %s re-encodes to %d bytes, stored %d",
				recs[i].Key, out.Len(), len(meshes[i]))
		}
	}

	mb := float64(raw) / 1e6
	s["codec.decode_mb_s"] = mb / dec.Seconds()
	s["codec.encode_mb_s"] = mb / enc.Seconds()
	s["codec.decode_allocs_per_block"] = float64(a1-a0) / float64(len(meshes))
	s["kernel.min_angle_deg"] = minAngle * 180 / math.Pi
	return nil
}
