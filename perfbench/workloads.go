package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"

	"mrts/internal/cluster"
	"mrts/internal/comm"
	"mrts/internal/meshgen"
	"mrts/internal/meshstore"
	"mrts/internal/obs"
	"mrts/internal/ooc"
	"mrts/internal/storage"
)

// The cluster shape every workload runs on: 2 nodes × 1 worker, which is
// the CPU count of the machine the benchmark was sized on, in one process.
const (
	nodes          = 2
	workersPerNode = 1
	// bytesPerElement is the mesh-footprint estimate the bench harness
	// sizes memory budgets with (internal/bench: 22 bytes per element).
	bytesPerElement = 22
	// traceCapacity is the per-node event ring of a traced iteration. The
	// obs default (1<<15) drops events on nupdr-ooc; this size keeps every
	// event of the largest workload. A traced iteration that drops events
	// fails.
	traceCapacity = 1 << 20
)

// The mesh sizes and their pinned verification values.
const (
	updrBlocks = 12
	updrTarget = 1_200_000
	// updrHash is the canonical MeshHash of the 12×12, 1.2M-target uniform
	// mesh. OUPDR, S-UPDR and the restore of S-UPDR's store must all
	// reproduce it, whatever the seed and the schedule.
	updrHash = "6a960b8ef0431572084ee68ff6dd67d17c53752fa259bf06713967323e5fdcde"

	nupdrTarget = 800_000
	// nupdrElements is the ONUPDR element count at nupdrTarget. The count
	// depends on the schedule by a few hundredths of a percent, so it is
	// checked within nupdrTolerance.
	nupdrElements  = 1_157_450
	nupdrTolerance = 0.001

	// supdrConflictProb is S-UPDR's conflict probability.
	supdrConflictProb = 0.1
)

// The regime-matched I/O models of the bench harness (internal/bench
// oocCluster): a 600 µs / 150 MB/s disk per node and a 200 µs / 100 MB/s
// network.
var (
	netModel  = comm.LatencyModel{Latency: 200 * time.Microsecond, BytesPerSec: 100 << 20}
	diskModel = storage.DiskModel{Seek: 600 * time.Microsecond, BytesPerSec: 150 << 20}
)

// env is one iteration's context.
type env struct {
	dir    string // iteration directory, removed afterwards
	seed   int64
	traced bool
}

// workload is one named benchmark load: a generation call on the standard
// out-of-core cluster, and the check its result must pass.
type workload struct {
	// budgetElems is how many elements the whole cluster may hold in core.
	budgetElems int
	// export streams the mesh into a meshstore during generation, which is
	// then sealed, verified and restored.
	export   bool
	generate func(cl *cluster.Cluster, seed int64, w *meshstore.Writer) (meshgen.Result, error)
	check    func(meshgen.Result) error
}

var workloads = map[string]*workload{
	// The Tables I/IV regime: large swap units, so the mesh kernel and the
	// decode of each swap-in dominate.
	"updr-ooc": {
		budgetElems: updrTarget / 3,
		generate: func(cl *cluster.Cluster, _ int64, _ *meshstore.Writer) (meshgen.Result, error) {
			return meshgen.RunOUPDR(cl, meshgen.UPDRConfig{Blocks: updrBlocks, TargetElements: updrTarget})
		},
		check: checkUniform,
	},
	// Many small objects: swapio queueing, storage, comm and sched do most
	// of the work.
	"nupdr-ooc": {
		budgetElems: nupdrTarget / 3,
		generate: func(cl *cluster.Cluster, _ int64, _ *meshstore.Writer) (meshgen.Result, error) {
			return meshgen.RunONUPDR(cl, meshgen.NUPDRConfig{TargetElements: nupdrTarget})
		},
		check: checkGraded,
	},
	// The uniform mesh again, speculatively, streamed into a compressed
	// meshstore: the swap path is nearly idle, the store and rollback busy.
	"supdr-store": {
		budgetElems: updrTarget * 2 / 3,
		export:      true,
		generate: func(cl *cluster.Cluster, seed int64, w *meshstore.Writer) (meshgen.Result, error) {
			return meshgen.RunSUPDR(cl, meshgen.SUPDRConfig{
				UPDRConfig:   meshgen.UPDRConfig{Blocks: updrBlocks, TargetElements: updrTarget},
				ConflictProb: supdrConflictProb,
				Seed:         seed,
				Export:       w,
			})
		},
		check: checkUniform,
	},
}

func workloadNames() []string {
	var out []string
	for n := range workloads {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// checkUniform requires the pinned uniform mesh.
func checkUniform(res meshgen.Result) error {
	if !res.Conforming {
		return fmt.Errorf("%s interfaces do not conform", res.Method)
	}
	if res.MeshHash != updrHash {
		return fmt.Errorf("%s MeshHash %s, want %s", res.Method, res.MeshHash, updrHash)
	}
	return nil
}

// checkGraded requires a conforming graded mesh of the pinned size.
func checkGraded(res meshgen.Result) error {
	if !res.Conforming {
		return fmt.Errorf("%s interfaces do not conform", res.Method)
	}
	if d := float64(res.Elements-nupdrElements) / nupdrElements; d > nupdrTolerance || d < -nupdrTolerance {
		return fmt.Errorf("%s produced %d elements, want %d within %.2f%%",
			res.Method, res.Elements, nupdrElements, 100*nupdrTolerance)
	}
	return nil
}

// rig is one iteration's cluster, store writer and trace sink.
type rig struct {
	cl   *cluster.Cluster
	w    *meshstore.Writer // nil unless the workload exports
	sink *obs.TraceSink    // nil unless traced
}

// setUp creates the spool directory, builds the 2-node out-of-core cluster
// and, for an exporting workload, the store writer: the set-up that setup_s
// times.
func (wl *workload) setUp(e env) (rig, error) {
	var r rig
	spool := filepath.Join(e.dir, "spool")
	if err := os.MkdirAll(spool, 0o755); err != nil {
		return r, err
	}
	if e.traced {
		r.sink = obs.NewTraceSink(traceCapacity)
	}
	cl, err := cluster.New(cluster.Config{
		Nodes:          nodes,
		WorkersPerNode: workersPerNode,
		MemBudget:      int64(wl.budgetElems * bytesPerElement / nodes),
		Policy:         ooc.LRU,
		SpoolDir:       spool,
		Factory:        meshgen.Factory,
		Network:        netModel,
		Disk:           diskModel,
		Seed:           e.seed,
		Trace:          r.sink,
	})
	if err != nil {
		return r, fmt.Errorf("build cluster: %w", err)
	}
	r.cl = cl
	if wl.export {
		r.w, err = meshstore.NewWriter(meshstore.WriterConfig{
			Dir:      filepath.Join(e.dir, "store"),
			Meta:     meshstore.Meta{Blocks: updrBlocks, TargetElements: updrTarget},
			Compress: true,
		})
		if err != nil {
			cl.Close()
			return r, fmt.Errorf("store writer: %w", err)
		}
	}
	return r, nil
}

// setUpOnly times one set-up and releases it unused.
func (wl *workload) setUpOnly(e env) (sample, error) {
	t0 := time.Now()
	r, err := wl.setUp(e)
	if err != nil {
		return nil, err
	}
	d := time.Since(t0)
	r.cl.Close()
	if r.w != nil {
		r.w.Close()
	}
	return sample{"setup_s": d.Seconds()}, nil
}

// iterate runs one whole iteration: set-up, the generation call, teardown,
// verification and, for an exporting workload, the store round trip.
func (wl *workload) iterate(e env) (sample, error) {
	// Start every iteration from a collected heap, so the live-heap samples
	// and the GC work of one iteration do not leak into the next.
	runtime.GC()
	before := meshstore.Snapshot()
	t0 := time.Now()
	r, err := wl.setUp(e)
	if err != nil {
		return nil, err
	}
	if r.w != nil {
		// Closing a finalized writer is a no-op; this releases it on the
		// failure paths.
		defer r.w.Close()
	}
	setup := time.Since(t0)

	hs := startHeapSampler()
	t0 = time.Now()
	res, err := wl.generate(r.cl, e.seed, r.w)
	mesh := time.Since(t0)
	live := hs.stop()
	io, mem, disk, pes := r.cl.IOStats(), r.cl.MemStats(), r.cl.DiskStats(), r.cl.PEs()

	t0 = time.Now()
	r.cl.Close()
	teardown := time.Since(t0)
	if err != nil {
		return nil, err
	}
	if err := wl.check(res); err != nil {
		return nil, err
	}
	if mem.LoadFailures+mem.StoreFailures+mem.ObjectsLost != 0 {
		return nil, fmt.Errorf("swap failures: %d loads, %d stores failed, %d objects lost",
			mem.LoadFailures, mem.StoreFailures, mem.ObjectsLost)
	}
	s := sample{
		"setup_s": setup.Seconds(),
		"mesh_s":  mesh.Seconds(),
		"speed":   float64(res.Elements) / mesh.Seconds() / float64(pes),
		// The median over GC cycles is the working set the call keeps live;
		// the maximum is one cycle's extreme and spreads too much to gate.
		"live_heap_mb":          medianMB(live),
		"ooc.peak_live_heap_mb": maxMB(live),
		"cluster.teardown_s":    teardown.Seconds(),
	}
	job := setup + mesh + teardown
	if wl.export {
		t0 = time.Now()
		if err := storeRoundTrip(s, r.w, filepath.Join(e.dir, "store"), res.Elements, before); err != nil {
			return nil, err
		}
		job += time.Since(t0)
	}
	s["job_s"] = job.Seconds()
	if e.traced {
		layerMetrics(s, r.sink, res, io, mem, disk, mesh, pes)
		// Span aggregates over a trace that lost events would be wrong.
		if d := s["trace.dropped"]; d != 0 {
			return nil, fmt.Errorf("trace dropped %.0f events", d)
		}
		if wl.export {
			if err := codecStage(s, filepath.Join(e.dir, "store")); err != nil {
				return nil, err
			}
		}
	}
	return s, nil
}

// storeRoundTrip seals the exported store, deep-verifies it and restores it
// onto a cluster of a different node count, checking the MeshHash at every
// step. before is the meshstore counter snapshot taken ahead of the
// generation call that streamed the store.
func storeRoundTrip(s sample, w *meshstore.Writer, dir string, elements int, before meshstore.Stats) error {
	t0 := time.Now()
	if _, err := w.Finalize(); err != nil {
		return fmt.Errorf("finalize store: %w", err)
	}
	man, err := meshstore.MergeManifests(dir)
	if err != nil {
		return fmt.Errorf("merge manifests: %w", err)
	}
	s["meshstore.finalize_s"] = time.Since(t0).Seconds()
	if man.Partial || man.MeshHash != updrHash {
		return fmt.Errorf("merged store partial=%v MeshHash %s, want %s", man.Partial, man.MeshHash, updrHash)
	}
	t0 = time.Now()
	rep, err := meshstore.Verify(dir)
	if err != nil {
		return fmt.Errorf("verify store: %w", err)
	}
	s["meshstore.verify_s"] = time.Since(t0).Seconds()
	if !rep.OK() {
		return fmt.Errorf("verify store: %v", rep.Problems)
	}

	t0 = time.Now()
	st, err := meshstore.Open(dir)
	if err != nil {
		return fmt.Errorf("open store: %w", err)
	}
	defer st.Close()
	s["meshstore.open_s"] = time.Since(t0).Seconds()
	load, dump, hash, err := restore(st)
	if err != nil {
		return err
	}
	if hash != updrHash {
		return fmt.Errorf("restored MeshHash %s, want %s", hash, updrHash)
	}
	after := meshstore.Snapshot()
	s["restore.load_s"] = load.Seconds()
	s["restore.dump_s"] = dump.Seconds()
	s["restore.total_s"] = time.Since(t0).Seconds()
	s["meshstore.bytes_written"] = float64(after.BytesWritten - before.BytesWritten)
	s["meshstore.raw_bytes"] = float64(after.RawBytes - before.RawBytes)
	s["meshstore.bytes_read"] = float64(after.BytesRead - before.BytesRead)
	s["meshstore.bytes_per_elem"] = float64(w.Bytes()) / float64(elements)
	return nil
}

// restore rebuilds the store on a fresh in-core 1-node cluster (the writer
// had 2 nodes; its 2 workers still fit the 2 CPUs) and returns the load and
// dump times and the restored MeshHash.
func restore(st *meshstore.Store) (load, dump time.Duration, hash string, err error) {
	meta := st.Manifest().Meta
	cl, err := cluster.New(cluster.Config{
		Nodes:          1,
		WorkersPerNode: nodes * workersPerNode,
		MemBudget:      int64(meta.TargetElements) * 30,
		Factory:        meshgen.Factory,
	})
	if err != nil {
		return 0, 0, "", fmt.Errorf("restore cluster: %w", err)
	}
	defer cl.Close()
	t0 := time.Now()
	d, err := meshgen.NewDist(cl.RT(0), meshgen.DistConfig{
		Blocks:         meta.Blocks,
		TargetElements: meta.TargetElements,
		QualityBound:   meta.QualityBound,
		Nodes:          1,
	})
	if err != nil {
		return 0, 0, "", fmt.Errorf("restore: %w", err)
	}
	if err := d.RestoreFromStore(st); err != nil {
		return 0, 0, "", fmt.Errorf("restore: %w", err)
	}
	load = time.Since(t0)
	t0 = time.Now()
	blocks := d.Dump()
	if len(blocks) != meta.Blocks*meta.Blocks {
		return 0, 0, "", fmt.Errorf("restore dumped %d blocks, want %d", len(blocks), meta.Blocks*meta.Blocks)
	}
	hash = meshgen.MeshHashOf(blocks)
	return load, time.Since(t0), hash, nil
}

// heapSampler records the live Go heap marked by each GC cycle that ends
// while it runs.
type heapSampler struct {
	stopc chan struct{}
	done  chan []uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stopc: make(chan struct{}), done: make(chan []uint64, 1)}
	go func() {
		sm := []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}, {Name: "/gc/heap/live:bytes"}}
		metrics.Read(sm)
		last := sm[0].Value.Uint64()
		var live []uint64
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-h.stopc:
				if len(live) == 0 {
					metrics.Read(sm)
					live = append(live, sm[1].Value.Uint64())
				}
				h.done <- live
				return
			case <-tick.C:
			}
			metrics.Read(sm)
			if c := sm[0].Value.Uint64(); c != last {
				last = c
				live = append(live, sm[1].Value.Uint64())
			}
		}
	}()
	return h
}

// stop ends the sampling and returns the live heap of each GC cycle seen
// (at least one value).
func (h *heapSampler) stop() []uint64 {
	close(h.stopc)
	return <-h.done
}

func medianMB(v []uint64) float64 {
	f := make([]float64, len(v))
	for i, x := range v {
		f[i] = float64(x) / 1e6
	}
	return median(f)
}

func maxMB(v []uint64) float64 {
	var m uint64
	for _, x := range v {
		m = max(m, x)
	}
	return float64(m) / 1e6
}
