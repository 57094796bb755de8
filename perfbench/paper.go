package main

import (
	"runtime/metrics"
	"time"

	"graf/internal/autoscale"
	"graf/internal/azure"
	"graf/internal/bench"
	"graf/internal/cluster"
	"graf/internal/core"
	"graf/internal/obs"
	"graf/internal/sim"
	"graf/internal/workload"
)

// tickS is the control interval of every workload, in simulated seconds.
const tickS = 5.0

// azureRate is a seeded Azure-style invocation trace as an open-loop rate
// (req/s), repeated so a fast host never runs off its end.
func azureRate(seed int64, baseRPS float64) func(float64) float64 {
	cfg := azure.DefaultTrace()
	cfg.Seed = seed
	cfg.BaseQPM = baseRPS * 60
	perMin := azure.Generate(cfg)
	return func(t float64) float64 {
		i := int(t/60) % len(perMin)
		if i < 0 {
			i = 0
		}
		return perMin[i] / 60
	}
}

// paperAzure is the paper's deployment: one Online Boutique tenant under
// the default hardened controller, driven as RunUntil(t) then Step() every
// control interval.
type paperAzure struct {
	app   []string // service names, in model order
	slo   float64
	eng   *sim.Engine
	cl    *cluster.Cluster
	ctl   *core.Controller
	model *timedModel // traced runs only
	trc   *obs.Tracer // traced runs only
	rt    []metrics.Sample

	q   quality
	dig digest

	roundMS, stepMS, solveStepMS      []float64
	solveRoundMS                      []float64
	heapMB                            float64
	runNS, solveStepNS, gradInSolveNS int64
	runAlloc, stepAlloc               uint64
	solves, boosts, holds, converged  int
	iters                             float64
	start                             rtSample
	req0, created0, failed0           int
}

// paperHorizon is how many control intervals count towards the quality
// metrics (one simulated hour).
const paperHorizon = 720

func newPaperAzure(tr *bench.Trained, seed int64, trc *obs.Tracer) *paperAzure {
	p := &paperAzure{app: tr.App.ServiceNames(), slo: tr.SLO, trc: trc, rt: newRTBuf(),
		q: quality{horizon: paperHorizon}, dig: newDigest()}
	p.eng = sim.NewEngine(seed)
	p.cl = cluster.New(p.eng, tr.App, cluster.DefaultConfig())
	// A fixed trace shape; the seed draws the arrivals and service times.
	rate := azureRate(1, 200)
	autoscale.ProvisionProactive(p.cl, rate(0), 0.5)
	p.eng.RunUntil(60)

	cfg := core.DefaultControllerConfig(tr.SLO)
	cfg.TrainedMinRate, cfg.TrainedMaxRate = tr.RateLo, tr.RateHi
	var m core.LatencyModel = tr.Model
	if trc != nil {
		p.model = newTimedModel(tr.Model, "gnn", trc, true)
		m = p.model
	}
	p.ctl = core.NewController(p.cl, m, core.NewAnalyzer(tr.App), tr.Bounds, cfg)
	if trc != nil {
		p.ctl.OnDecision = func(_ float64, _ float64, sol core.Solution) {
			p.iters += float64(sol.Iterations)
			if sol.Converged {
				p.converged++
			}
		}
	}
	workload.NewOpenLoop(p.cl, rate).Start()
	p.start = readRT(p.rt)
	p.req0, p.created0, p.failed0 = p.cl.E2EWindow().Len(), p.cl.CreatedTotal(), p.cl.FailedRequests()
	return p
}

func (p *paperAzure) next() error {
	root := p.trc.StartRoot("bench/round")
	span := p.trc.StartChild(root.Context(), "sim/run_until")
	var a0, a1, a2 rtSample
	if p.trc != nil {
		a0 = readRT(p.rt)
	}
	from := p.eng.Now()
	sw := startWatch()
	t0 := sw.wall
	p.eng.RunUntil(from + tickS)
	t1 := time.Now()
	span.End()
	if p.trc != nil {
		a1 = readRT(p.rt)
		span = p.trc.StartChild(root.Context(), "core/step")
		p.model.parent = span.Context()
	}
	solves, boosts, grad0 := p.ctl.Solves(), p.ctl.Boosts(), p.model.gradNS()
	p.ctl.Step()
	t2 := time.Now()
	p.q.timed(sw, 1)
	span.End()
	root.End()
	if p.trc != nil {
		a2 = readRT(p.rt)
		p.runAlloc += a1.sub(a0).allocBytes
		p.stepAlloc += a2.sub(a1).allocBytes
	}

	p.roundMS = append(p.roundMS, ms(t2.Sub(t0)))
	p.stepMS = append(p.stepMS, ms(t2.Sub(t1)))
	p.runNS += t1.Sub(t0).Nanoseconds()
	switch {
	case p.ctl.Solves() > solves:
		p.solves++
		p.solveStepMS = append(p.solveStepMS, ms(t2.Sub(t1)))
		p.solveRoundMS = append(p.solveRoundMS, ms(t2.Sub(t0)))
		p.solveStepNS += t2.Sub(t1).Nanoseconds()
		p.gradInSolveNS += p.model.gradNS() - grad0
	case p.ctl.Boosts() > boosts:
		p.boosts++
	default:
		p.holds++
	}

	quotas := p.cl.Quotas()
	row := make([]float64, 0, len(p.app)+1)
	row = append(row, float64(p.q.units))
	for _, s := range p.app {
		row = append(row, quotas[s])
	}
	p.dig.add(row...)
	if p.q.counting() {
		w := p.cl.E2EWindow()
		to := from + tickS
		p.q.window(p.cl.TotalQuota(), tickS, w.Quantile(0.99, from, to), p.slo, w.Count(from, to), 0)
	}
	p.q.units++
	if p.q.units == p.q.horizon {
		p.heapMB = liveHeapMB()
	}
	return nil
}

func (p *paperAzure) unitsRun() int { return p.q.units }

func (p *paperAzure) finish(r *result, _ *spanIndex) {
	n := float64(p.q.units)
	wallNS := int64(sum(p.roundMS) * 1e6)
	r.unitNS = wallNS
	r.attempted = p.q.units
	r.digest = p.dig.String()
	p.q.report(r)
	r.set("round_ms.p50", quantile(p.roundMS, 0.5))
	r.set("round_ms.p90", quantile(p.roundMS, 0.9))
	r.set("solve_round_ms.p50", quantile(p.solveRoundMS, 0.5))
	r.set("tenant_ticks_per_core_s", perCore(n, wallNS))
	if p.heapMB == 0 { // the run ended before its quality horizon
		p.heapMB = liveHeapMB()
	}
	r.set("heap_live_mb", p.heapMB)
	if failed := p.cl.FailedRequests() - p.failed0; failed > 0 {
		r.problem("paper-azure: %d simulated requests failed with no fault injected", failed)
	}

	requests := float64(p.cl.E2EWindow().Len() - p.req0)
	rt := readRT(p.rt).sub(p.start)
	r.set("sim.run_ms", float64(p.runNS)/1e6/n)
	r.set("sim.requests", requests)
	r.set("sim.ns_per_request", ratio(float64(p.runNS), requests))
	r.set("sim.alloc_bytes_per_request", ratio(float64(p.runAlloc), requests))
	r.set("cluster.instances_created", float64(p.cl.CreatedTotal()-p.created0))
	r.set("cluster.failed_requests", float64(p.cl.FailedRequests()-p.failed0))
	r.set("core.decision_ms.p50", quantile(p.stepMS, 0.5))
	r.set("core.solve_decision_ms.p50", quantile(p.solveStepMS, 0.5))
	r.set("core.solve_decision_ms.p90", quantile(p.solveStepMS, 0.9))
	r.set("core.solve.calls", float64(p.solves))
	r.set("core.boosts", float64(p.boosts))
	r.set("core.holds", float64(p.holds))
	r.set("runtime.gc_cpu_frac", ratio(rt.gcCPU, rt.totalCPU))
	r.set("runtime.alloc_bytes_per_tick", float64(rt.allocBytes)/n)
	if m := p.model; m != nil {
		stepNS := int64(sum(p.stepMS) * 1e6)
		r.set("gnn.predict_grad.calls", float64(m.grad.calls()))
		r.set("gnn.predict_grad.us.p50", quantile(m.grad.us, 0.5))
		r.set("gnn.predict_grad.alloc_bytes_per_call", ratio(float64(m.grad.allocBytes), float64(m.grad.calls())))
		r.set("gnn.predict.calls", float64(m.pred.calls()))
		r.set("gnn.predict.us.p50", quantile(m.pred.us, 0.5))
		r.set("core.step.self_ms", float64(stepNS-m.modelNS())/1e6/n)
		r.set("core.step.alloc_bytes", float64(p.stepAlloc)/n)
		r.set("core.solve.iters.mean", ratio(p.iters, float64(p.solves)))
		r.set("core.solve.self_ms", ratio(float64(p.solveStepNS-p.gradInSolveNS)/1e6, float64(p.solves)))
		r.set("core.solve.converged_frac", ratio(float64(p.converged), float64(p.solves)))
	}
}

func (p *paperAzure) spans() []obs.TraceSpan { return p.trc.Snapshot() }

func (p *paperAzure) close() {}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
