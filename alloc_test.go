// Allocation ceilings of the control interval's hot paths: the GNN
// inference calls, one solve, the simulator's handler events and a
// request's trip through the cluster. Each ceiling is the measured
// steady-state count, so a change that allocates more fails here before it
// shows up as GC time. The race detector changes allocation behaviour (and
// makes sync.Pool drop items at random), so these tests skip under it.
// They also hold the collector off while they count: a GC empties the
// model's scratch pool, and the refill it forces is not steady state.
package graf_test

import (
	"math/rand"
	"runtime/debug"
	"testing"

	"graf/internal/app"
	"graf/internal/cluster"
	"graf/internal/core"
	"graf/internal/gnn"
	"graf/internal/sim"
)

// steadyAllocs skips the test under the race detector and disables the
// garbage collector until the test ends.
func steadyAllocs(t *testing.T) {
	t.Helper()
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	old := debug.SetGCPercent(-1)
	t.Cleanup(func() { debug.SetGCPercent(old) })
}

func boutiqueModel() (m *gnn.Model, load, quota []float64) {
	a := app.OnlineBoutique()
	m = gnn.New(gnn.DefaultConfig(len(a.Services), a.Parents()), rand.New(rand.NewSource(1)))
	return m, []float64{100, 40, 140, 120, 80, 40}, []float64{800, 400, 500, 600, 900, 700}
}

func TestAllocsGNNPredict(t *testing.T) {
	steadyAllocs(t)
	m, load, quota := boutiqueModel()
	m.Predict(load, quota) // fill the scratch pool
	if n := testing.AllocsPerRun(1000, func() { m.Predict(load, quota) }); n != 0 {
		t.Errorf("Predict: %v allocs per call, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() { m.PredictGrad(load, quota) }); n > 1 {
		t.Errorf("PredictGrad: %v allocs per call, want at most 1 (the returned gradient)", n)
	}
}

func TestAllocsSolve(t *testing.T) {
	steadyAllocs(t)
	m, load, _ := boutiqueModel()
	lo := []float64{100, 100, 100, 100, 100, 100}
	hi := []float64{2000, 2000, 2000, 2000, 2000, 2000}
	cfg := core.DefaultSolverConfig()
	var sol core.Solution
	solve := func() { sol = core.Solve(m, load, 0.2, lo, hi, cfg) }
	solve()
	// One gradient slice per descent iteration plus the solve's own
	// buffers; measured 181 on this input.
	const ceiling = 181
	if n := testing.AllocsPerRun(20, solve); n > ceiling {
		t.Errorf("Solve: %v allocs over %d iterations, want at most %d", n, sol.Iterations, ceiling)
	}
}

// rearm is a Handler that schedules itself again each time it fires.
type rearm struct {
	eng *sim.Engine
	dt  float64
}

func (r *rearm) Fire() { r.eng.AfterHandler(r.dt, r) }

func TestAllocsEngineHandlers(t *testing.T) {
	steadyAllocs(t)
	eng := sim.NewEngine(1)
	for i := 0; i < 64; i++ {
		// Periods with common multiples, so many events share an instant.
		eng.AfterHandler(0, &rearm{eng: eng, dt: float64(1 + i%4)})
	}
	eng.RunUntil(100) // grow the heap and the free list to steady state
	if n := testing.AllocsPerRun(100, func() { eng.RunUntil(eng.Now() + 10) }); n != 0 {
		t.Errorf("handler scheduling and firing: %v allocs per 10 s, want 0", n)
	}
}

// submitter is a Handler that submits one request per firing, cycling
// through the application's APIs.
type submitter struct {
	cl *cluster.Cluster
	k  int
}

func (s *submitter) Fire() {
	apis := s.cl.App.APIs
	s.cl.Submit(apis[s.k%len(apis)].Name, nil)
	s.k++
}

func TestAllocsPerClusterRequest(t *testing.T) {
	steadyAllocs(t)
	eng := sim.NewEngine(3)
	cl := cluster.New(eng, app.OnlineBoutique(), cluster.DefaultConfig())
	cl.ApplyQuotas(map[string]float64{
		"frontend": 1000, "cart": 500, "currency": 750,
		"productcatalog": 1000, "recommendation": 1250, "shipping": 750,
	})
	eng.RunUntil(30) // every instance ready
	sub := &submitter{cl: cl}
	const perRun = 200
	burst := func() {
		start := eng.Now()
		for i := 0; i < perRun; i++ {
			eng.AfterHandler(float64(i)/100, sub)
		}
		eng.RunUntil(start + 5)
	}
	burst()
	// A request, its span slice, and per call one state machine and one
	// job; telemetry appends add a fraction. Measured 12.37 (the closure
	// version made 72.7).
	const ceiling = 13
	if perReq := testing.AllocsPerRun(20, burst) / perRun; perReq > ceiling {
		t.Errorf("%.2f allocs per request, want at most %v", perReq, ceiling)
	}
}
