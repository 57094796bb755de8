package main

import (
	"fmt"
	"sort"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// spec names a metric and its unit; the lists below are the benchmark's
// contract and match BENCHMARK.json (a test checks that).
type spec struct{ name, unit string }

// endToEnd are the metrics of an untraced run: what a user of GRAF sees,
// and steady enough from seed to seed and run to run to carry a bound. Wall
// times are not: see README.md.
var endToEnd = []spec{
	{"setup_s", "s"},
	{"cpu_ms_per_tick", "ms"},
	{"cpu_core_s", "core-s"},
	{"window_p99_ms.capped_mean", "ms"},
	{"heap_live_mb", "MB"},
}

// perLayer are the metrics of a traced run. The unit timings at the top come
// from its untraced replay. A layer a workload does not reach (rpc on a
// single process, the private GNN path behind the fleet's shared service)
// reports 0.
var perLayer = []spec{
	{"round_ms.p50", "ms"},
	{"round_ms.p90", "ms"},
	{"solve_round_ms.p50", "ms"},
	{"tenant_ticks_per_core_s", "ticks/s/core"},
	{"setup.wall_s", "s"},
	{"window_p99_ms.p50", "ms"},
	{"sim.run_ms", "ms"},
	{"sim.requests", "count"},
	{"sim.ns_per_request", "ns"},
	{"sim.alloc_bytes_per_request", "bytes"},
	{"cluster.instances_created", "count"},
	{"cluster.failed_requests", "count"},
	{"cluster.slo_miss_frac", "ratio"},
	{"gnn.predict_grad.calls", "count"},
	{"gnn.predict_grad.us.p50", "us"},
	{"gnn.predict_grad.alloc_bytes_per_call", "bytes"},
	{"gnn.predict.calls", "count"},
	{"gnn.predict.us.p50", "us"},
	{"core.decision_ms.p50", "ms"},
	{"core.solve_decision_ms.p50", "ms"},
	{"core.solve_decision_ms.p90", "ms"},
	{"core.step.self_ms", "ms"},
	{"core.step.alloc_bytes", "bytes"},
	{"core.solve.calls", "count"},
	{"core.solve.iters.mean", "count"},
	{"core.solve.self_ms", "ms"},
	{"core.solve.converged_frac", "ratio"},
	{"core.boosts", "count"},
	{"core.holds", "count"},
	{"fleet.infer.calls", "count"},
	{"fleet.infer.us.p50", "us"},
	{"fleet.infer.us.p99", "us"},
	{"fleet.cache.hit_frac", "ratio"},
	{"fleet.batch.mean_size", "count"},
	{"fleet.solves", "count"},
	{"fleet.degraded", "count"},
	{"fleet.round.alloc_bytes", "bytes"},
	{"rpc.shard_tick_ms.p50", "ms"},
	{"rpc.transport_ms.p50", "ms"},
	{"rpc.attempts", "count"},
	{"rpc.retries", "count"},
	{"rpc.migrate.blackout_ms.p50", "ms"},
	{"rpc.migrate.replayed_ticks", "count"},
	{"rpc.migrate.ms_per_age_tick", "ms"},
	{"ckpt.checkpoint_all_ms", "ms"},
	{"ckpt.bytes", "bytes"},
	{"runtime.gc_cpu_frac", "ratio"},
	{"runtime.alloc_bytes_per_tick", "bytes"},
	{"trace.overhead_frac", "ratio"},
	{"trace.spans", "count"},
}

// result is what one workload run produced.
type result struct {
	values map[string]float64 // by metric name; units come from the specs

	attempted, failed int      // host operations and how many failed
	problems          []string // failed output checks
	digest            string   // decision fingerprint, compared traced vs untraced
	unitNS            int64    // wall time inside the timed units
}

func newResult() *result { return &result{values: map[string]float64{}} }

func (r *result) set(name string, v float64) { r.values[name] = v }

func (r *result) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// metrics renders the given specs; names a workload did not set are 0.
func (r *result) metrics(specs []spec) map[string]metric {
	out := make(map[string]metric, len(specs))
	for _, s := range specs {
		out[s.name] = metric{Value: r.values[s.name], Unit: s.unit}
	}
	return out
}

// quality integrates the paper's two outcome measures over a fixed number
// of closed-loop units, so they are exact for a seed however fast the host.
type quality struct {
	horizon  int // units that count
	units    int
	cpuCoreS float64
	p99MS    []float64 // per (tenant, window)
	cappedMS float64   // sum of the windows' p99, each capped at twice the SLO
	missed   int
	cpuS     float64 // process CPU inside the timed units
	ticks    int     // tenant ticks in those units
}

// timed accounts the CPU time of one timed unit of ticks tenant ticks,
// started at sw, if the unit is inside the horizon.
func (q *quality) timed(sw stopwatch, ticks int) {
	if q.counting() {
		q.cpuS += cpuSeconds() - sw.cpu
		q.ticks += ticks
	}
}

// window accounts one tenant's control interval of tickS simulated seconds:
// the quota it held and its tail latency against the SLO. A failed request
// counts as a miss: more than 1% failed means the p99 is failed, and the
// window weighs the cap. The cap keeps the mean a measure of how many
// windows miss and by how much up to twice the SLO, not of how long a
// backlog lasts, which moves with the seed far more.
func (q *quality) window(quotaMilli, tickS, p99, slo float64, requests, failed int) {
	q.cpuCoreS += quotaMilli / 1000 * tickS
	q.p99MS = append(q.p99MS, p99*1e3)
	capped := min(p99, 2*slo)
	if failed*100 > requests+failed {
		capped = 2 * slo
	}
	q.cappedMS += capped * 1e3
	if p99 > slo || failed*100 > requests+failed {
		q.missed++
	}
}

// counting reports whether the current unit is inside the horizon.
func (q *quality) counting() bool { return q.units < q.horizon }

func (q *quality) report(r *result) {
	r.set("cpu_core_s", q.cpuCoreS)
	r.set("cpu_ms_per_tick", ratio(q.cpuS*1e3, float64(q.ticks)))
	r.set("window_p99_ms.capped_mean", ratio(q.cappedMS, float64(len(q.p99MS))))
	r.set("window_p99_ms.p50", quantile(q.p99MS, 0.5))
	r.set("cluster.slo_miss_frac", ratio(float64(q.missed), float64(len(q.p99MS))))
}

func sortedKeys[M ~map[string]V, V any](m M) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
