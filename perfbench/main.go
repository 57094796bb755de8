// Command perfbench is GRAF's benchmark: one closed-loop workload per run,
// measured for a fixed wall time against the real packages, with its
// outputs checked. See README.md for the workloads and metrics.
//
//	perfbench --workload paper-azure --seed 1 --seconds 5 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. --trace 0 reports the end-to-end
// metrics; --trace 1 reports the per-layer metrics from a traced run, then
// replays the same number of units untraced and fails unless both made the
// same decisions.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"graf/internal/app"
	"graf/internal/bench"
	"graf/internal/obs"
)

// instance is one built system under test.
type instance interface {
	// next runs one closed-loop unit: a control interval, a fleet round or a
	// routed episode. The driver starts the next only when it returns.
	next() error
	unitsRun() int
	// finish fills r; ix indexes the run's spans (nil when untraced).
	finish(r *result, ix *spanIndex)
	spans() []obs.TraceSpan
	close()
}

type workloadDef struct {
	name string
	// minUnits is the quality horizon: a run never stops before it.
	minUnits int
	build    func(tr *bench.Trained, seed int64, dir string, trc *obs.Tracer) (instance, error)
}

var workloads = []workloadDef{
	{"paper-azure", paperHorizon, func(tr *bench.Trained, seed int64, _ string, trc *obs.Tracer) (instance, error) {
		return newPaperAzure(tr, seed, trc), nil
	}},
	{"fleet-mixed16", fleetHorizon, func(tr *bench.Trained, seed int64, _ string, trc *obs.Tracer) (instance, error) {
		return newFleetMixed(tr, seed, trc)
	}},
	{"routed-migrate", 1, func(tr *bench.Trained, seed int64, dir string, trc *obs.Tracer) (instance, error) {
		return newRoutedMigrate(tr, seed, dir, trc)
	}},
}

// options parameterize one run.
type options struct {
	seed    int64
	seconds float64
	traced  bool
	scale   bench.Scale
	setups  int    // set-ups timed per run; setup_s is their median
	outDir  string // scratch space and the Chrome trace, inside the checkout
}

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: paper-azure, fleet-mixed16 or routed-migrate")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 10, "wall seconds to measure")
	trace := fs.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var w *workloadDef
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload paper-azure|fleet-mixed16|routed-migrate, --seconds > 0, --trace 0|1\n")
		return 2
	}
	fmt.Fprintln(stdout, hostLine())
	opts := options{seed: *seed, seconds: *seconds, traced: *trace == 1, scale: bench.Quick(), setups: 3, outDir: ".bench_build"}
	res, table, err := runWorkload(*w, opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	return report(stdout, res, table, opts.traced)
}

// report prints the metrics table, any failed checks, and the result line;
// it returns the exit code.
func report(stdout io.Writer, res *result, table string, traced bool) int {
	specs := endToEnd
	if traced {
		specs = perLayer
		fmt.Fprint(stdout, table)
	}
	for _, s := range specs {
		fmt.Fprintf(stdout, "%-40s %16.6g %s\n", s.name, res.values[s.name], s.unit)
	}
	if !traced {
		for _, name := range unitTimings {
			fmt.Fprintf(stdout, "%-40s %16.6g (per-layer; no bound)\n", name, res.values[name])
		}
	}
	for _, p := range res.problems {
		fmt.Fprintln(stdout, "CHECK FAILED:", p)
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(res.problems) == 0, res.attempted, res.failed, res.metrics(specs)})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if len(res.problems) > 0 {
		return 1
	}
	return 0
}

// train runs the offline pipeline of bench.BoutiquePipeline(scale) afresh:
// that function memoizes per process, and set-up is timed several times.
// The no-MPNN ablation model it also trains is left out; no workload uses it.
func train(scale bench.Scale) *bench.Trained {
	return bench.TrainPipeline(app.OnlineBoutique(), bench.PipelineConfig{
		SLO: 0.250, RateLo: 40, RateHi: 420, Scale: scale, Seed: 1,
	})
}

// runWorkload sets the workload up opts.setups times, keeps the last build,
// drives it for opts.seconds (and at least its quality horizon), and checks
// its outputs. A traced run then replays its unit count untraced on a second
// build and compares decisions.
func runWorkload(w workloadDef, opts options) (*result, string, error) {
	runDir := filepath.Join(opts.outDir, fmt.Sprintf("perfbench-%d", os.Getpid()))
	defer os.RemoveAll(runDir)

	var setupCPU, setupWall []float64
	var inst, twin instance
	defer func() {
		for _, i := range []instance{inst, twin} {
			if i != nil {
				i.close()
			}
		}
	}()
	var tr *bench.Trained
	for i := 0; i < opts.setups; i++ {
		if inst != nil {
			inst.close()
		}
		sw := startWatch()
		tr = train(opts.scale)
		var err error
		inst, err = w.build(tr, opts.seed, filepath.Join(runDir, fmt.Sprintf("setup-%d", i)), tracerFor(opts))
		if err != nil {
			return nil, "", err
		}
		setupCPU = append(setupCPU, cpuSeconds()-sw.cpu)
		setupWall = append(setupWall, time.Since(sw.wall).Seconds())
	}

	deadline := time.Now().Add(time.Duration(opts.seconds * float64(time.Second)))
	for inst.unitsRun() < w.minUnits || time.Now().Before(deadline) {
		if err := inst.next(); err != nil {
			return nil, "", err
		}
	}
	res := newResult()
	var table string
	if !opts.traced {
		inst.finish(res, nil)
	} else {
		spans := inst.spans()
		ix := newSpanIndex(spans)
		inst.finish(res, ix)
		var b strings.Builder
		ix.writeTable(&b)
		path := filepath.Join(opts.outDir, fmt.Sprintf("perfbench-%s-seed%d.trace.json", w.name, opts.seed))
		if err := writeChrome(path, spans); err != nil {
			return nil, "", fmt.Errorf("chrome trace: %w", err)
		}
		fmt.Fprintf(&b, "chrome trace: %s (%d spans)\n", path, len(spans))
		table = b.String()
		res.set("trace.spans", float64(len(spans)))

		// Training is not bit-reproducible across calls, so the untraced
		// twin shares the traced run's model: any decision difference is
		// then the tracing's doing. It is built only now, so its set-up
		// does not count towards the traced run's runtime deltas.
		units := inst.unitsRun()
		inst.close()
		inst = nil
		var err error
		if twin, err = w.build(tr, opts.seed, filepath.Join(runDir, "twin"), nil); err != nil {
			return nil, "", err
		}
		for twin.unitsRun() < units {
			if err := twin.next(); err != nil {
				return nil, "", err
			}
		}
		ref := newResult()
		twin.finish(ref, nil)
		if ref.digest != res.digest {
			res.problem("%s: traced run's decisions (digest %s) differ from the untraced replay's (%s)", w.name, res.digest, ref.digest)
		}
		res.problems = append(res.problems, ref.problems...)
		res.set("trace.overhead_frac", ratio(float64(res.unitNS), float64(ref.unitNS))-1)
		for _, name := range unitTimings {
			res.set(name, ref.values[name])
		}
	}
	res.set("setup_s", quantile(setupCPU, 0.5))
	res.set("setup.wall_s", quantile(setupWall, 0.5))
	if res.attempted < 1 {
		return nil, "", errors.New("no operation attempted")
	}
	return res, table, nil
}

// unitTimings are the wall times of the closed-loop units. They move with
// the host more than any bound allows, so they are per-layer metrics; a
// traced run takes them from its untraced replay.
var unitTimings = []string{"round_ms.p50", "round_ms.p90", "solve_round_ms.p50", "tenant_ticks_per_core_s"}

// tracerFor returns the span store of a traced run, nil otherwise. It keeps
// every span of a run in memory; they are written out when the run ends.
func tracerFor(opts options) *obs.Tracer {
	if !opts.traced {
		return nil
	}
	return obs.NewTracer(obs.TracerOptions{Seed: opts.seed, Proc: "perfbench", Cap: 1 << 22})
}
