package main

import (
	"fmt"
	"runtime/metrics"
	"time"

	"graf/internal/bench"
	"graf/internal/fleet"
	"graf/internal/obs"
)

const (
	fleetTenants = 16
	// fleetHorizon is how many rounds count towards the quality metrics
	// (16 tenants × 24 windows).
	fleetHorizon = 24
)

// fleetMixed is 16 tenants in one process sharing the batched inference
// service and its cache, each replaying its own Azure-style trace at a base
// rate spread across the model's trained range.
type fleetMixed struct {
	f      *fleet.Fleet
	trc    *obs.Tracer
	models []*timedModel // traced runs only
	rt     []metrics.Sample

	q            quality
	roundMS      []float64
	solveRoundMS []float64
	heapMB       float64
	roundAlloc   uint64
	start        rtSample
	base         fleet.Stats
	solves0      int
	boosts0      int
	req0         int
	create0      int
	fail0        int
}

func newFleetMixed(tr *bench.Trained, seed int64, trc *obs.Tracer) (*fleetMixed, error) {
	cfg := fleet.Config{
		App: tr.App, Model: tr.Model, Bounds: tr.Bounds, SLO: tr.SLO,
		MinRate: tr.RateLo, MaxRate: tr.RateHi,
		Workers: 2, Shards: 2, TickS: tickS, Seed: seed, WarmStart: true,
		Tracer: trc,
	}
	for i := 0; i < fleetTenants; i++ {
		// Fixed trace shapes per tenant; the seed draws every tenant's
		// arrivals and service times (engine seeds derive from it).
		cfg.Tenants = append(cfg.Tenants, fleet.TenantConfig{
			ID:   fmt.Sprintf("tenant-%02d", i),
			Rate: azureRate(int64(i+1), 80+12*float64(i)),
		})
	}
	f, err := fleet.New(cfg)
	if err != nil {
		return nil, err
	}
	m := &fleetMixed{f: f, trc: trc, rt: newRTBuf(), q: quality{horizon: fleetHorizon}}
	if trc != nil {
		for _, t := range f.Tenants() {
			tm := newTimedModel(t.Ctl.Model, "fleet/infer", trc, false)
			t.Ctl.Model = tm
			m.models = append(m.models, tm)
		}
	}
	f.Start()
	m.base = f.Stats()
	for _, t := range f.Tenants() {
		m.solves0 += t.Ctl.Solves()
		m.boosts0 += t.Ctl.Boosts()
		m.req0 += t.Cluster.E2EWindow().Len()
		m.create0 += t.Cluster.CreatedTotal()
		m.fail0 += t.Cluster.FailedRequests()
	}
	m.start = readRT(m.rt)
	return m, nil
}

func (m *fleetMixed) next() error {
	root := m.trc.StartRoot("bench/round")
	if root != nil {
		m.f.SetTraceParent(root.Context())
		for _, tm := range m.models {
			tm.parent = root.Context()
		}
	}
	fails := make([]int, 0, fleetTenants)
	for _, t := range m.f.Tenants() {
		fails = append(fails, t.Cluster.FailedRequests())
	}
	solves := m.solves()
	a0 := readRT(m.rt)
	sw := startWatch()
	m.f.Round()
	d := time.Since(sw.wall)
	m.q.timed(sw, fleetTenants)
	root.End()
	a1 := readRT(m.rt)
	m.roundAlloc += a1.sub(a0).allocBytes
	m.roundMS = append(m.roundMS, ms(d))
	if m.solves() > solves {
		m.solveRoundMS = append(m.solveRoundMS, ms(d))
	}
	if m.q.counting() {
		for i, t := range m.f.Tenants() {
			from := t.Eng.Now() - tickS
			m.q.window(t.Cluster.TotalQuota(), tickS, t.LastP99(), t.SLO(),
				t.Cluster.E2EWindow().Count(from, t.Eng.Now()), t.Cluster.FailedRequests()-fails[i])
		}
	}
	m.q.units++
	if m.q.units == m.q.horizon {
		m.heapMB = liveHeapMB()
	}
	return nil
}

func (m *fleetMixed) unitsRun() int { return m.q.units }

// solves is how many solver runs the tenants' controllers made so far.
func (m *fleetMixed) solves() int {
	n := 0
	for _, t := range m.f.Tenants() {
		n += t.Ctl.Solves()
	}
	return n
}

func (m *fleetMixed) finish(r *result, ix *spanIndex) {
	st := m.f.Stats()
	ticks := st.Ticks - m.base.Ticks
	wallNS := int64(sum(m.roundMS) * 1e6)
	r.unitNS = wallNS
	r.attempted = ticks + m.q.units
	r.failed = st.Degraded
	if st.Degraded != 0 {
		r.problem("fleet-mixed16: %d degraded tenants", st.Degraded)
	}
	if want := st.Tenants * st.Rounds; st.Ticks != want {
		r.problem("fleet-mixed16: %d ticks, want tenants × rounds = %d", st.Ticks, want)
	}
	dig := newDigest()
	var solves, boosts, requests, created, failed int
	for _, t := range m.f.Tenants() {
		n, h := t.AuditDigest()
		dig.add(float64(n), float64(h>>32), float64(h&0xffffffff))
		solves += t.Ctl.Solves()
		boosts += t.Ctl.Boosts()
		requests += t.Cluster.E2EWindow().Len()
		created += t.Cluster.CreatedTotal()
		failed += t.Cluster.FailedRequests()
	}
	r.digest = dig.String()
	m.q.report(r)
	r.set("round_ms.p50", quantile(m.roundMS, 0.5))
	r.set("round_ms.p90", quantile(m.roundMS, 0.9))
	r.set("solve_round_ms.p50", quantile(m.solveRoundMS, 0.5))
	r.set("tenant_ticks_per_core_s", perCore(float64(ticks), wallNS))
	if m.heapMB == 0 { // the run ended before its quality horizon
		m.heapMB = liveHeapMB()
	}
	r.set("heap_live_mb", m.heapMB)

	solves -= m.solves0
	boosts -= m.boosts0
	req := float64(requests - m.req0)
	rt := readRT(m.rt).sub(m.start)
	r.set("sim.requests", req)
	r.set("sim.alloc_bytes_per_request", ratio(float64(m.roundAlloc), req))
	r.set("cluster.instances_created", float64(created-m.create0))
	r.set("cluster.failed_requests", float64(failed-m.fail0))
	r.set("core.solve.calls", float64(solves))
	r.set("core.boosts", float64(boosts))
	r.set("core.holds", float64(ticks-solves-boosts))
	r.set("fleet.solves", float64(solves))
	r.set("fleet.degraded", float64(st.Degraded))
	hits, misses := st.CacheHits-m.base.CacheHits, st.CacheMisses-m.base.CacheMisses
	r.set("fleet.cache.hit_frac", ratio(float64(hits), float64(hits+misses)))
	r.set("fleet.batch.mean_size", ratio(float64(st.BatchedReqs-m.base.BatchedReqs), float64(st.Batches-m.base.Batches)))
	r.set("fleet.round.alloc_bytes", float64(m.roundAlloc)/float64(m.q.units))
	r.set("runtime.gc_cpu_frac", ratio(rt.gcCPU, rt.totalCPU))
	r.set("runtime.alloc_bytes_per_tick", ratio(float64(rt.allocBytes), float64(ticks)))
	if m.trc != nil {
		var us []float64
		var calls int
		var modelNS, gradNS int64
		for _, tm := range m.models {
			us = append(us, tm.grad.us...)
			us = append(us, tm.pred.us...)
			calls += tm.grad.calls() + tm.pred.calls()
			modelNS += tm.modelNS()
			gradNS += tm.gradNS()
		}
		r.set("fleet.infer.calls", float64(calls))
		r.set("fleet.infer.us.p50", quantile(us, 0.5))
		r.set("fleet.infer.us.p99", quantile(us, 0.99))
		tickLayers(ix, r, req, modelNS, gradNS)
	}
}

func (m *fleetMixed) spans() []obs.TraceSpan { return m.trc.Snapshot() }

func (m *fleetMixed) close() { m.f.Stop() }
