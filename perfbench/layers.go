package main

import "strings"

// tickLayers fills the sim and core per-layer metrics of a fleet-shaped run
// from the spans the program's tracer already emits: one "tenant/tick" per
// tenant tick, with the controller's "decision/*" stages and "solver" as its
// children. modelNS and gradNS are the timing wrapper's totals, or 0 where
// the controllers run out of the benchmark's reach (the routed shards).
func tickLayers(ix *spanIndex, r *result, requests float64, modelNS, gradNS int64) {
	ticks := ix.byName["tenant/tick"]
	var simNS int64
	var solveSteps []float64
	for _, i := range ticks {
		simNS += ix.selfNS(i)
		if ix.childNamed(i, "solver") >= 0 {
			if st := ix.childNamed(i, "decision/step"); st >= 0 {
				solveSteps = append(solveSteps, float64(ix.spans[st].DurNS)/1e6)
			}
		}
	}
	r.set("sim.run_ms", ratio(float64(simNS)/1e6, float64(len(ticks))))
	r.set("sim.ns_per_request", ratio(float64(simNS), requests))

	steps := ix.durMS("decision/step")
	r.set("core.decision_ms.p50", quantile(steps, 0.5))
	r.set("core.solve_decision_ms.p50", quantile(solveSteps, 0.5))
	r.set("core.solve_decision_ms.p90", quantile(solveSteps, 0.9))

	solvers := ix.byName["solver"]
	var iters, conv float64
	for _, i := range solvers {
		iters += ix.spans[i].Attrs["iters"]
		conv += ix.spans[i].Attrs["converged"]
	}
	n := float64(len(solvers))
	r.set("core.solve.iters.mean", ratio(iters, n))
	r.set("core.solve.converged_frac", ratio(conv, n))
	if modelNS > 0 {
		r.set("core.step.self_ms", ratio(float64(ix.totalNS("decision/step")-modelNS)/1e6, float64(len(steps))))
		r.set("core.solve.self_ms", ratio(float64(ix.totalNS("solver")-gradNS)/1e6, n))
	}
}

// snapSum sums every series of a metric family in a registry snapshot.
func snapSum(snap map[string]float64, family string) float64 {
	t := 0.0
	for k, v := range snap {
		if k == family || strings.HasPrefix(k, family+"{") {
			t += v
		}
	}
	return t
}
