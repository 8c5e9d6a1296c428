package meshgen

import (
	"fmt"
	"io"
	"math"
	"sync/atomic"
	"time"

	"mrts/internal/cluster"
	"mrts/internal/core"
	"mrts/internal/delaunay3"
	"mrts/internal/geom3"
)

// This file is the tetrahedral (3-D) out-of-core block method: the unit cube
// decomposed into sub-cube mobile objects, each holding its own tetrahedral
// mesh, generated and swapped under the MRTS exactly like the 2-D OUPDR
// blocks. The paper generates both triangular and tetrahedral meshes; this
// build demonstrates that the runtime's code paths are dimension-agnostic.
//
// Scope note: the 3-D kernel has no constrained facets, so neighboring
// blocks do not share identical interface triangulations (3-D boundary
// recovery is out of scope — see internal/mesh3); the 2-D methods carry the
// conformity results.

// hBlock3Mesh is the OUPDR-3D mesh handler ID.
const hBlock3Mesh core.HandlerID = 401

// tetsPerUnitVolume calibrates edge length to element count:
// tets ≈ k · volume / h³.
const tetsPerUnitVolume = 180.0

// block3Obj is one sub-cube with its tetrahedral mesh.
type block3Obj struct {
	Box      geom3.Box
	H        float64
	MeshData []byte
	Elements int32
	Verts    int32
}

func (o *block3Obj) TypeID() uint16 { return typeBlock3 }

func (o *block3Obj) SizeHint() int { return 96 + len(o.MeshData) }

func (o *block3Obj) EncodeTo(w io.Writer) error {
	for _, f := range []float64{
		o.Box.Min.X, o.Box.Min.Y, o.Box.Min.Z,
		o.Box.Max.X, o.Box.Max.Y, o.Box.Max.Z, o.H,
	} {
		if err := writeF64(w, f); err != nil {
			return err
		}
	}
	for _, v := range []uint32{uint32(o.Elements), uint32(o.Verts)} {
		if err := writeU32(w, v); err != nil {
			return err
		}
	}
	return writeBytes(w, o.MeshData)
}

func (o *block3Obj) DecodeFrom(r io.Reader) error {
	fs := make([]float64, 7)
	var err error
	for i := range fs {
		if fs[i], err = readF64(r); err != nil {
			return err
		}
	}
	o.Box = geom3.Box{
		Min: geom3.Pt(fs[0], fs[1], fs[2]),
		Max: geom3.Pt(fs[3], fs[4], fs[5]),
	}
	o.H = fs[6]
	var vs [2]uint32
	for i := range vs {
		if vs[i], err = readU32(r); err != nil {
			return err
		}
	}
	o.Elements, o.Verts = int32(vs[0]), int32(vs[1])
	if o.MeshData, err = readBytes(r); err != nil {
		return err
	}
	if len(o.MeshData) == 0 {
		o.MeshData = nil
	}
	return nil
}

// OUPDR3Config configures the tetrahedral block run over the unit cube.
type OUPDR3Config struct {
	// Blocks is the decomposition per axis (Blocks³ sub-cubes).
	Blocks int
	// TargetElements is the approximate total tetrahedron count.
	TargetElements int
}

func (c *OUPDR3Config) defaults() error {
	if c.Blocks <= 0 {
		c.Blocks = 2
	}
	if c.TargetElements <= 0 {
		return fmt.Errorf("meshgen: TargetElements must be positive")
	}
	return nil
}

type oupdr3Shared struct {
	elements atomic.Int64
	verts    atomic.Int64
	failures atomic.Int64
}

func registerOUPDR3(cl *cluster.Cluster, sh *oupdr3Shared) {
	for _, rt := range cl.Runtimes() {
		rt.Register(hBlock3Mesh, func(c *core.Ctx, arg []byte) {
			o := c.Object().(*block3Obj)
			m, err := delaunay3.NewBoxMesh(o.Box)
			if err != nil {
				sh.failures.Add(1)
				return
			}
			if _, err := delaunay3.Refine(m, o.Box, delaunay3.Options{
				Size: func(geom3.Point) float64 { return o.H },
			}); err != nil {
				sh.failures.Add(1)
				return
			}
			data, err := encodeMesh(m)
			if err != nil {
				sh.failures.Add(1)
				return
			}
			o.MeshData = data
			o.Elements = int32(m.NumInteriorTets())
			o.Verts = int32(m.NumVertices())
			sh.elements.Add(int64(o.Elements))
			sh.verts.Add(int64(o.Verts))
		})
	}
}

// RunOUPDR3 executes the tetrahedral block method on an MRTS cluster.
func RunOUPDR3(cl *cluster.Cluster, cfg OUPDR3Config) (Result, error) {
	if err := cfg.defaults(); err != nil {
		return Result{}, err
	}
	start := time.Now()
	sh := &oupdr3Shared{}
	registerOUPDR3(cl, sh)

	nb := cfg.Blocks
	h := math.Cbrt(tetsPerUnitVolume / float64(cfg.TargetElements))
	w := 1.0 / float64(nb)
	var ptrs []core.MobilePtr
	idx := 0
	for i := 0; i < nb; i++ {
		for j := 0; j < nb; j++ {
			for k := 0; k < nb; k++ {
				box := geom3.NewBox(
					geom3.Pt(float64(i)*w, float64(j)*w, float64(k)*w),
					geom3.Pt(float64(i+1)*w, float64(j+1)*w, float64(k+1)*w),
				)
				node := idx % cl.Nodes()
				idx++
				ptrs = append(ptrs, cl.RT(node).CreateObject(&block3Obj{Box: box, H: h}))
			}
		}
	}
	for _, p := range ptrs {
		cl.RT(int(p.Home)).Post(p, hBlock3Mesh, nil)
	}
	cl.Wait()

	if sh.failures.Load() > 0 {
		return Result{}, fmt.Errorf("meshgen: %d blocks failed to mesh", sh.failures.Load())
	}
	return Result{
		Method:     "OUPDR3",
		Elements:   int(sh.elements.Load()),
		Vertices:   int(sh.verts.Load()),
		Subdomains: nb * nb * nb,
		PEs:        cl.PEs(),
		Elapsed:    time.Since(start),
		Report:     cl.Report(),
		Mem:        cl.MemStats(),
		Conforming: false, // 3-D interfaces are not constrained (see file doc)
	}, nil
}
