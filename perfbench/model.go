package main

import (
	"runtime/metrics"
	"time"

	"graf/internal/core"
	"graf/internal/obs"
)

// timedModel is a pass-through core.LatencyModel: it forwards every call to
// the model the controller was built with and records the call's wall time
// (and, when rt is set, its heap allocation) plus a span. It never touches
// the arguments or results, so decisions are identical with or without it.
type timedModel struct {
	inner core.LatencyModel
	layer string // span name prefix: "gnn" (private model) or "fleet/infer" (shared service)
	tr    *obs.Tracer

	// parent is the span the next calls nest under; the driver sets it
	// between units, never while the owning controller runs.
	parent obs.SpanContext

	// rt, when set, measures per-call heap allocation. Only meaningful when
	// one goroutine allocates at a time, so the fleet leaves it nil.
	rt []metrics.Sample

	grad, pred callStats
}

// callStats accumulates one entry point's calls.
type callStats struct {
	us         []float64 // wall time per call
	ns         int64     // total wall time
	allocBytes uint64
}

func (s *callStats) calls() int { return len(s.us) }

func newTimedModel(inner core.LatencyModel, layer string, tr *obs.Tracer, measureAlloc bool) *timedModel {
	m := &timedModel{inner: inner, layer: layer, tr: tr}
	if measureAlloc {
		m.rt = newRTBuf()
	}
	return m
}

func (m *timedModel) Predict(load, quota []float64) float64 {
	t0, a0 := m.begin()
	v := m.inner.Predict(load, quota)
	m.end(&m.pred, "/predict", t0, a0)
	return v
}

func (m *timedModel) PredictGrad(load, quota []float64) (float64, []float64) {
	t0, a0 := m.begin()
	v, g := m.inner.PredictGrad(load, quota)
	m.end(&m.grad, "/predict_grad", t0, a0)
	return v, g
}

func (m *timedModel) begin() (time.Time, rtSample) {
	var a rtSample
	if m.rt != nil {
		a = readRT(m.rt)
	}
	return time.Now(), a
}

func (m *timedModel) end(s *callStats, op string, t0 time.Time, a0 rtSample) {
	d := time.Since(t0)
	if m.rt != nil {
		s.allocBytes += readRT(m.rt).sub(a0).allocBytes
	}
	s.us = append(s.us, float64(d.Nanoseconds())/1e3)
	s.ns += d.Nanoseconds()
	m.tr.Record(m.parent, m.layer+op, t0.UnixNano(), d.Nanoseconds(), nil)
}

// modelNS is the total wall time spent inside the wrapped model.
func (m *timedModel) modelNS() int64 {
	if m == nil {
		return 0
	}
	return m.grad.ns + m.pred.ns
}

// gradNS is the total wall time spent inside PredictGrad.
func (m *timedModel) gradNS() int64 {
	if m == nil {
		return 0
	}
	return m.grad.ns
}
