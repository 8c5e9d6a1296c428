package main

import (
	"math"
	"sort"
	"time"

	"mrts/internal/meshgen"
	"mrts/internal/obs"
	"mrts/internal/ooc"
	"mrts/internal/storage"
	"mrts/internal/swapio"
	"mrts/internal/trace"
)

// spans is the trace of one iteration grouped by event kind: event
// counts, summed arguments and sorted durations (zero for instant events).
type spans struct {
	count map[obs.Kind]int
	durs  map[obs.Kind][]time.Duration
	args  map[obs.Kind]int64
}

func collect(sink *obs.TraceSink) (spans, uint64) {
	sp := spans{count: map[obs.Kind]int{}, durs: map[obs.Kind][]time.Duration{}, args: map[obs.Kind]int64{}}
	var dropped uint64
	for _, t := range sink.Tracers() {
		dropped += t.Dropped()
		for _, ev := range t.Events() {
			sp.count[ev.Kind]++
			sp.args[ev.Kind] += ev.Arg
			sp.durs[ev.Kind] = append(sp.durs[ev.Kind], time.Duration(ev.Dur))
		}
	}
	for _, d := range sp.durs {
		sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
	}
	return sp, dropped
}

// busy is the summed duration of kind k.
func (sp spans) busy(k obs.Kind) time.Duration {
	var t time.Duration
	for _, d := range sp.durs[k] {
		t += d
	}
	return t
}

// pctMs is the q-quantile (nearest rank) of kind k's durations in ms.
func (sp spans) pctMs(k obs.Kind, q float64) float64 {
	d := sp.durs[k]
	if len(d) == 0 {
		return 0
	}
	i := max(int(math.Ceil(q*float64(len(d))))-1, 0)
	return float64(d[i]) / float64(time.Millisecond)
}

// layerMetrics adds one traced iteration's per-layer metrics to s: span
// aggregates from the sink, and the cluster counters read when the
// generation call returned.
func layerMetrics(s sample, sink *obs.TraceSink, res meshgen.Result, io swapio.Stats, mem ooc.Stats,
	disk storage.Stats, mesh time.Duration, pes int) {
	sp, dropped := collect(sink)

	s["kernel.handlers"] = float64(sp.count[obs.KindHandler])
	s["kernel.handler_busy_s"] = sp.busy(obs.KindHandler).Seconds()
	s["kernel.handler_p50_ms"] = sp.pctMs(obs.KindHandler, 0.50)
	s["kernel.handler_p99_ms"] = sp.pctMs(obs.KindHandler, 0.99)

	s["swapio.demand_loads"] = float64(io.DemandLoads)
	s["swapio.writes"] = float64(io.Writes)
	s["swapio.prefetches"] = float64(io.Prefetches)
	s["swapio.coalesced"] = float64(io.Coalesced)
	s["swapio.max_queue_depth"] = float64(io.MaxQueueDepth)
	// Eviction writes still queued or running when the call returned: work
	// pushed past the end of the run into Close.
	s["swapio.writes_pending_at_end"] = float64(io.Writes - io.CompletedWrites)
	s["swapio.wait_p50_ms"] = sp.pctMs(obs.KindSwapWait, 0.50)
	s["swapio.wait_p99_ms"] = sp.pctMs(obs.KindSwapWait, 0.99)

	s["storage.bytes_written"] = float64(disk.BytesWritten)
	s["storage.bytes_read"] = float64(disk.BytesRead)
	s["storage.puts"] = float64(disk.Puts)
	s["storage.gets"] = float64(disk.Gets)
	s["storage.load_p50_ms"] = sp.pctMs(obs.KindSwapLoad, 0.50)
	s["storage.load_p99_ms"] = sp.pctMs(obs.KindSwapLoad, 0.99)
	s["storage.evict_p50_ms"] = sp.pctMs(obs.KindSwapEvict, 0.50)
	s["storage.evict_p99_ms"] = sp.pctMs(obs.KindSwapEvict, 0.99)

	s["ooc.loads"] = float64(mem.Loads)
	s["ooc.evictions"] = float64(mem.Evictions)
	s["ooc.peak_mem_mb"] = float64(mem.PeakMemUsed) / 1e6
	s["ooc.evict_stalls"] = float64(sp.count[obs.KindSwapStall])
	s["ooc.load_failures"] = float64(mem.LoadFailures)

	r := res.Report
	s["core.comp_pct"] = r.Percent(trace.Comp)
	s["core.comm_pct"] = r.Percent(trace.Comm)
	s["core.disk_pct"] = r.Percent(trace.Disk)
	s["core.overlap_pct"] = r.Overlap()
	if res.Method == "S-UPDR" {
		s["core.conflicts"] = float64(res.Conflicts)
		s["core.rollbacks"] = float64(res.Rollbacks)
	}

	s["comm.messages"] = float64(sp.count[obs.KindCommSend])
	s["comm.bytes"] = float64(sp.args[obs.KindCommSend])
	s["comm.deliver_p50_ms"] = sp.pctMs(obs.KindCommDeliver, 0.50)
	s["comm.deliver_p99_ms"] = sp.pctMs(obs.KindCommDeliver, 0.99)

	busy := sp.busy(obs.KindSchedRun)
	s["sched.tasks"] = float64(sp.count[obs.KindSchedRun])
	s["sched.steals"] = float64(sp.count[obs.KindSchedSteal])
	s["sched.busy_s"] = busy.Seconds()
	s["sched.idle_pct"] = 100 * (1 - busy.Seconds()/(mesh.Seconds()*float64(pes)))

	s["trace.dropped"] = float64(dropped)
}
