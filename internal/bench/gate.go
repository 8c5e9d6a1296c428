package bench

import (
	"fmt"
	"path"
	"sort"
	"strconv"
	"strings"
)

// rule bounds every gated metric whose leaf name (the part after the last
// "/") matches its glob. With higher set, higher is better and the metric
// regresses when it falls below baseline×rel − abs; otherwise it regresses
// when it rises above baseline×rel + abs. The first matching rule applies;
// a metric no rule matches (evictions, element counts, breakdown
// percentages) is informational and not gated.
type rule struct {
	match  string  // path.Match glob on the leaf name
	higher bool    // higher is better: the bound is a floor, not a ceiling
	rel    float64 // factor on the baseline value
	abs    float64 // absolute slack, in the metric's unit
	unit   string  // appended to numbers in the violation message
	prec   int     // decimals in the violation message
}

// rules is the whole gate. The relative bounds are wide because hosted CI
// runners vary in speed run to run; a deliberate slowdown (an added sleep, a
// lost overlap path) is still an order of magnitude and trips them. The
// absolute slack carries metrics whose healthy baseline sits at or near zero,
// where a purely relative bound is vacuous.
var rules = []rule{
	// Throughput: elements/s/PE, or MB/s for the meshio stages.
	{match: "speed_*", higher: true, rel: 0.25, prec: 1},
	// The paper's comp/IO overlap and cache hit ratios, in percentage
	// points: near 0 and 100 a relative bound degenerates.
	{match: "overlap_pct", higher: true, rel: 1, abs: 25, unit: "%", prec: 1},
	{match: "*hit_pct", higher: true, rel: 1, abs: 25, unit: "%", prec: 1},
	// Wall times.
	{match: "time_*sec", rel: 4, unit: "s", prec: 3},
	// Queueing latency (the pipeline experiment's demand-load wait): a
	// healthy wait is a fraction of a millisecond, where scheduler jitter
	// alone would trip a relative bound.
	{match: "*_wait_ms", rel: 10, abs: 5, unit: "ms", prec: 3},
	// Steady-state heap allocations on the swap hot path: a couple of
	// incidental allocations (a map bucket split, a queue growth) are noise
	// over a baseline near zero.
	{match: "*_allocs_per_op", rel: 3, abs: 4, unit: " allocs/op", prec: 2},
	// Payload bytes crossing a storage boundary: deterministic counts, so a
	// double-write or a lost compression win trips it on any machine.
	{match: "bytes_moved", rel: 2, unit: " bytes", prec: 0},
	// Routing indirection: the placed locator's settled baseline is exactly
	// zero, and a handful of forwards from scheduling races (a post landing
	// during a migration install) is noise.
	{match: "forwarded_per_msg", rel: 2, abs: 0.05, prec: 3},
	// Mean hop count of delivered messages; 1.0 means every remote message
	// took the direct hop.
	{match: "hops_mean", rel: 1.5, abs: 0.25, unit: " hops", prec: 2},
	// Speculation conflicts per interior interface: whether an announcement
	// finds its receiver mid-speculation depends on scheduling, and the
	// zero-probability cell's healthy baseline is exactly zero.
	{match: "conflict_rate", rel: 2, abs: 0.25, unit: " conflicts/interface", prec: 2},
}

// ruleFor returns the rule that gates metric name, or nil.
func ruleFor(name string) *rule {
	leaf := name[strings.LastIndex(name, "/")+1:]
	for i := range rules {
		if ok, _ := path.Match(rules[i].match, leaf); ok {
			return &rules[i]
		}
	}
	return nil
}

// check returns the violation for metric k of experiment id, or "".
func (r *rule) check(id, k string, base, got float64) string {
	bound, op, sign := base*r.rel+r.abs, ">", " + "
	violated := got > bound
	if r.higher {
		bound, op, sign = base*r.rel-r.abs, "<", " − "
		violated = got < bound
	}
	if !violated {
		return ""
	}
	num := func(v float64) string { return strconv.FormatFloat(v, 'f', r.prec, 64) + r.unit }
	limit := "baseline"
	if r.rel != 1 {
		limit += " × " + strconv.FormatFloat(r.rel, 'g', -1, 64)
	}
	if r.abs != 0 {
		limit += sign + strconv.FormatFloat(r.abs, 'g', -1, 64)
	}
	return fmt.Sprintf("%s: %s regressed: %s %s %s (baseline %s, bound %s)",
		id, k, num(got), op, num(bound), num(base), limit)
}

// Compare checks current against baseline and returns one human-readable
// violation string per regression (empty slice = gate passes). A shape
// mismatch (different scale or PEs) or a baseline metric missing from the
// current run is itself a violation: silently comparing different runs would
// make the gate pass vacuously.
func Compare(baseline, current *Doc) []string {
	var out []string
	if baseline.Scale != current.Scale || baseline.PEs != current.PEs {
		out = append(out, fmt.Sprintf(
			"run shape mismatch: baseline scale=%g pes=%d, current scale=%g pes=%d",
			baseline.Scale, baseline.PEs, current.Scale, current.PEs))
		return out
	}
	for _, id := range baseline.ExperimentIDs() {
		base := baseline.Experiments[id]
		cur := current.Experiments[id]
		if cur == nil {
			out = append(out, fmt.Sprintf("%s: experiment missing from current run", id))
			continue
		}
		keys := make([]string, 0, len(base))
		for k := range base {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			r := ruleFor(k)
			if r == nil {
				continue
			}
			got, ok := cur[k]
			if !ok {
				out = append(out, fmt.Sprintf("%s: %s missing from current run", id, k))
				continue
			}
			if v := r.check(id, k, base[k], got); v != "" {
				out = append(out, v)
			}
		}
	}
	return out
}
