package cluster

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"graf/internal/app"
	"graf/internal/sim"
)

// faultRunDigest drives a seeded Online Boutique run through the call
// layer's fault paths, which a steady-state run never reaches: queue
// timeouts on an under-provisioned deployment, instances killed mid-run,
// retries exhausted, contention and lossy trace collection. It returns a
// fingerprint of everything the run observed.
func faultRunDigest(t *testing.T) (e2e string, failedReqs, failedCalls int, errs map[string]int, spans string) {
	t.Helper()
	eng := sim.NewEngine(2024)
	cfg := DefaultConfig()
	cfg.QueueTimeoutS = 0.05
	cfg.MaxRetries = 1
	cfg.RetryBaseS = 0.02
	cl := New(eng, app.OnlineBoutique(), cfg)
	cl.ApplyQuotas(map[string]float64{
		"frontend": 1000, "cart": 300, "currency": 500,
		"productcatalog": 750, "recommendation": 500, "shipping": 500,
	})
	cl.SetTraceDrop(0.1)
	apis := cl.App.APIs
	var arrive func()
	arrive = func() {
		if eng.Now() >= 40 {
			return
		}
		api := apis[eng.Rand().Intn(len(apis))].Name
		cl.Submit(api, nil)
		eng.After(eng.Rand().ExpFloat64()/120, arrive)
	}
	eng.At(0, arrive)
	eng.At(10, func() { cl.KillInstances("productcatalog", 2) })
	eng.At(15, func() { cl.InjectContention("recommendation", 3, 5) })
	eng.At(22, func() { cl.CrashFraction(0.5) })
	eng.At(30, func() { cl.Deployment("cart").SetQuota(1000) })
	eng.Run()

	h := fnv.New64a()
	put := func(v float64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	vals := cl.E2EWindow().Since(0, eng.Now())
	put(float64(len(vals)))
	for _, v := range vals {
		put(v)
	}
	e2e = fmt.Sprintf("%016x", h.Sum64())

	errs = map[string]int{}
	for _, name := range cl.names {
		errs[name] = cl.deps[name].errors.Len()
	}

	h = fnv.New64a()
	for _, api := range cl.Traces().APIs() {
		h.Write([]byte(api))
		for _, tr := range cl.Traces().Traces(api) {
			put(float64(tr.ID))
			put(float64(tr.Errors))
			for _, s := range tr.Spans {
				h.Write([]byte(s.Service + "/" + s.Parent))
				put(s.Start)
				put(s.End)
				put(s.Queue)
			}
		}
	}
	spans = fmt.Sprintf("%016x", h.Sum64())
	return e2e, cl.FailedRequests(), cl.FailedCalls(), errs, spans
}

// TestFaultPathGolden pins the fault-path run to values captured from the
// closure-based call layer the state machine replaced: every event, random
// draw, retry and span must come out bit for bit the same.
func TestFaultPathGolden(t *testing.T) {
	e2e, failedReqs, failedCalls, errs, spans := faultRunDigest(t)
	const (
		wantE2E         = "918f0d675ed62a67"
		wantFailedReqs  = 897
		wantFailedCalls = 950
		wantSpans       = "da9fa66a6ce0348d"
	)
	wantErrs := map[string]int{
		"cart": 0, "currency": 1, "frontend": 616,
		"productcatalog": 1339, "recommendation": 686, "shipping": 2,
	}
	if e2e != wantE2E {
		t.Errorf("E2E window digest %s, want %s", e2e, wantE2E)
	}
	if failedReqs != wantFailedReqs || failedCalls != wantFailedCalls {
		t.Errorf("failed requests/calls %d/%d, want %d/%d", failedReqs, failedCalls, wantFailedReqs, wantFailedCalls)
	}
	for name, n := range wantErrs {
		if errs[name] != n {
			t.Errorf("%s: %d failed attempts, want %d", name, errs[name], n)
		}
	}
	if spans != wantSpans {
		t.Errorf("trace span digest %s, want %s", spans, wantSpans)
	}
}
