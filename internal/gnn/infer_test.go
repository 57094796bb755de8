package gnn

import (
	"math/rand"
	"sync"
	"testing"
)

func testModel(t testing.TB, mpnn bool) *Model {
	t.Helper()
	// A small fan-in graph: 0 -> {1,2} -> 3, plus a leaf 4 with no parents.
	parents := [][]int{{}, {0}, {0}, {1, 2}, {}}
	cfg := DefaultConfig(len(parents), parents)
	cfg.UseMPNN = mpnn
	return New(cfg, rand.New(rand.NewSource(7)))
}

func randInputs(rng *rand.Rand, nodes int) (load, quota []float64) {
	load = make([]float64, nodes)
	quota = make([]float64, nodes)
	for i := range load {
		load[i] = 20 + rng.Float64()*400
		quota[i] = 100 + rng.Float64()*3000
	}
	return load, quota
}

// The scratch-based inference path must be bit-identical to the training
// path's forward/backward (with train=false): replayed audit logs and
// same-seed runs depend on it.
func TestInferMatchesTrainingPath(t *testing.T) {
	for _, mpnn := range []bool{true, false} {
		m := testModel(t, mpnn)
		rng := rand.New(rand.NewSource(99))
		s := m.NewScratch()
		for it := 0; it < 50; it++ {
			load, quota := randInputs(rng, m.Cfg.Nodes)
			st := m.forward(load, quota, false, nil)
			m.zeroGrad()
			_, wantDQ := m.backward(st, 1)
			m.zeroGrad()

			got, gotDQ := m.PredictGradWith(s, load, quota)
			if got != st.y {
				t.Fatalf("mpnn=%v iter %d: PredictGradWith=%v want %v", mpnn, it, got, st.y)
			}
			if p := m.PredictWith(s, load, quota); p != st.y {
				t.Fatalf("mpnn=%v iter %d: PredictWith=%v want %v", mpnn, it, p, st.y)
			}
			for i := range wantDQ {
				if gotDQ[i] != wantDQ[i] {
					t.Fatalf("mpnn=%v iter %d: dQuota[%d]=%v want %v", mpnn, it, i, gotDQ[i], wantDQ[i])
				}
			}
		}
	}
}

// Reusing one scratch across calls must give the same answers as fresh
// scratches — no state may leak between invocations.
func TestScratchReuseIsStateless(t *testing.T) {
	m := testModel(t, true)
	rng := rand.New(rand.NewSource(3))
	shared := m.NewScratch()
	for it := 0; it < 30; it++ {
		load, quota := randInputs(rng, m.Cfg.Nodes)
		fresh := m.NewScratch()
		wy, wdq := m.PredictGradWith(fresh, load, quota)
		gy, gdq := m.PredictGradWith(shared, load, quota)
		if gy != wy {
			t.Fatalf("iter %d: shared scratch y=%v fresh=%v", it, gy, wy)
		}
		for i := range wdq {
			if gdq[i] != wdq[i] {
				t.Fatalf("iter %d: shared scratch dq[%d]=%v fresh=%v", it, i, gdq[i], wdq[i])
			}
		}
	}
}

// PredictBatch is the batcher's multi-graph forward: one scratch, many
// graphs, same answers as independent Predict calls.
func TestPredictBatchMatchesPredict(t *testing.T) {
	m := testModel(t, true)
	rng := rand.New(rand.NewSource(11))
	const batch = 17
	loads := make([][]float64, batch)
	quotas := make([][]float64, batch)
	want := make([]float64, batch)
	for b := range loads {
		loads[b], quotas[b] = randInputs(rng, m.Cfg.Nodes)
		want[b] = m.Predict(loads[b], quotas[b])
	}
	got := make([]float64, batch)
	m.PredictBatch(m.NewScratch(), loads, quotas, got)
	for b := range got {
		if got[b] != want[b] {
			t.Fatalf("batch[%d]=%v want %v", b, got[b], want[b])
		}
	}
}

// Predict/PredictGrad must be safe to hammer from many goroutines on one
// model: the inference path may not touch gradient accumulators, tapes, or
// any shared mutable state other than the model's scratch pool. Run with
// -race.
func TestConcurrentInferenceIsReadOnly(t *testing.T) {
	m := testModel(t, true)
	rng := rand.New(rand.NewSource(21))
	const inputs = 8
	loads := make([][]float64, inputs)
	quotas := make([][]float64, inputs)
	wantY := make([]float64, inputs)
	wantDQ := make([][]float64, inputs)
	for i := range loads {
		loads[i], quotas[i] = randInputs(rng, m.Cfg.Nodes)
		wantY[i] = m.Predict(loads[i], quotas[i])
		_, wantDQ[i] = m.PredictGrad(loads[i], quotas[i])
	}

	const goroutines = 8
	iters := 50
	if testing.Short() {
		iters = 10
	}
	var wg sync.WaitGroup
	errs := make(chan string, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			s := m.NewScratch()
			for it := 0; it < iters; it++ {
				i := (g + it) % inputs
				if g%2 == 0 {
					if y := m.PredictWith(s, loads[i], quotas[i]); y != wantY[i] {
						errs <- "concurrent PredictWith diverged"
						return
					}
					if y := m.Predict(loads[i], quotas[i]); y != wantY[i] {
						errs <- "concurrent Predict diverged"
						return
					}
				} else {
					y, dq := m.PredictGradWith(s, loads[i], quotas[i])
					if y != wantY[i] {
						errs <- "concurrent PredictGradWith y diverged"
						return
					}
					for d := range dq {
						if dq[d] != wantDQ[i][d] {
							errs <- "concurrent PredictGradWith dq diverged"
							return
						}
					}
					// The pooled path: its gradient is a copy the caller
					// owns, untouched by the scratch's next user.
					y, dq = m.PredictGrad(loads[i], quotas[i])
					m.Predict(loads[(i+1)%inputs], quotas[(i+1)%inputs])
					if y != wantY[i] {
						errs <- "concurrent PredictGrad y diverged"
						return
					}
					for d := range dq {
						if dq[d] != wantDQ[i][d] {
							errs <- "concurrent PredictGrad dq diverged"
							return
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

// --- Perf baseline: the convenience calls on the model's pooled Scratch
// against a caller-held Scratch. ---

func benchInputs() (*Model, []float64, []float64) {
	parents := [][]int{{}, {0}, {0}, {1, 2}, {3}, {3}, {4, 5}, {6}, {6}, {7, 8}}
	cfg := DefaultConfig(len(parents), parents)
	m := New(cfg, rand.New(rand.NewSource(5)))
	rng := rand.New(rand.NewSource(6))
	load, quota := randInputs(rng, cfg.Nodes)
	return m, load, quota
}

func BenchmarkPredict(b *testing.B) {
	m, load, quota := benchInputs()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Predict(load, quota)
	}
}

func BenchmarkPredictWith(b *testing.B) {
	m, load, quota := benchInputs()
	s := m.NewScratch()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.PredictWith(s, load, quota)
	}
}

func BenchmarkPredictGrad(b *testing.B) {
	m, load, quota := benchInputs()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.PredictGrad(load, quota)
	}
}

func BenchmarkPredictGradWith(b *testing.B) {
	m, load, quota := benchInputs()
	s := m.NewScratch()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.PredictGradWith(s, load, quota)
	}
}
