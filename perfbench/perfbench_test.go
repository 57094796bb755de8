package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"graf/internal/bench"
	"graf/internal/fleet"
)

// tinyScale trains a small model in about a second; the tests check the
// benchmark's plumbing, not the model's quality.
func tinyScale() bench.Scale {
	return bench.Scale{Name: "tiny", Samples: 200, Iterations: 40, Batch: 32, CalibrationProbes: 3}
}

func tinyWorkload(t *testing.T, name string) workloadDef {
	for _, w := range workloads {
		if w.name == name {
			w.minUnits = map[string]int{"paper-azure": 24, "fleet-mixed16": 2, "routed-migrate": 1}[name]
			return w
		}
	}
	t.Fatalf("no workload %q", name)
	return workloadDef{}
}

func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			w, traced := tinyWorkload(t, w.name), traced
			t.Run(w.name, func(t *testing.T) {
				opts := options{seed: 3, seconds: 0.01, traced: traced, scale: tinyScale(), setups: 1, outDir: t.TempDir()}
				res, _, err := runWorkload(w, opts)
				if err != nil {
					t.Fatal(err)
				}
				var out bytes.Buffer
				if code := report(&out, res, "", traced); code != 0 {
					t.Fatalf("exit %d:\n%s", code, out.String())
				}
				lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
				var got map[string]json.RawMessage
				if err := json.Unmarshal(lines[len(lines)-1], &got); err != nil {
					t.Fatalf("last line is not JSON: %v", err)
				}
				if len(got) != 4 || got["correct"] == nil || got["attempted"] == nil || got["failed"] == nil || got["metrics"] == nil {
					t.Fatalf("result keys %v, want exactly correct/attempted/failed/metrics", sortedKeys(got))
				}
				var metrics map[string]metric
				if err := json.Unmarshal(got["metrics"], &metrics); err != nil {
					t.Fatal(err)
				}
				specs := endToEnd
				if traced {
					specs = perLayer
				}
				if len(metrics) != len(specs) {
					t.Errorf("%d metrics, want %d", len(metrics), len(specs))
				}
				for _, s := range specs {
					m, ok := metrics[s.name]
					if !ok || m.Unit != s.unit {
						t.Errorf("metric %s: got %+v, want unit %s", s.name, m, s.unit)
					}
					if !traced && m.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, want > 0", s.name, m.Value)
					}
				}
				if traced {
					layer := map[string]string{
						"paper-azure":    "gnn.predict_grad.calls",
						"fleet-mixed16":  "fleet.infer.calls",
						"routed-migrate": "rpc.attempts",
					}[w.name]
					if metrics[layer].Value <= 0 {
						t.Errorf("%s = 0: the workload's own layer was not measured", layer)
					}
				}
			})
		}
	}
}

func TestSpecsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []spec) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark reports %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s/%s, the benchmark reports %s/%s",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", bj.EndToEnd, endToEnd)
	check("per_layer", bj.PerLayer, perLayer)
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bj.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json has %s, the benchmark runs %s", i, bj.Workloads[i].Name, w.name)
		}
	}
}

// The timing wrapper sits between every controller and its model; it must
// not change a single decision.
func TestModelWrapperLeavesDecisionsUnchanged(t *testing.T) {
	tr := train(tinyScale())
	for _, w := range workloads[:2] {
		w := tinyWorkload(t, w.name)
		t.Run(w.name, func(t *testing.T) {
			digest := func(traced bool) string {
				opts := options{seed: 5, traced: traced}
				inst, err := w.build(tr, opts.seed, t.TempDir(), tracerFor(opts))
				if err != nil {
					t.Fatal(err)
				}
				defer inst.close()
				for inst.unitsRun() < w.minUnits {
					if err := inst.next(); err != nil {
						t.Fatal(err)
					}
				}
				r := newResult()
				inst.finish(r, newSpanIndex(inst.spans()))
				return r.digest
			}
			if plain, wrapped := digest(false), digest(true); plain != wrapped {
				t.Fatalf("decision digest %s without the wrapper, %s with it", plain, wrapped)
			}
		})
	}
}

// routed-migrate's on-disk audit logs, migration included, must be
// byte-identical to a single-process fleet built from the same rpc.Spec.
func TestRoutedAuditMatchesSingleProcessFleet(t *testing.T) {
	tr := train(tinyScale())
	m, err := newRoutedMigrate(tr, 7, t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer m.close()
	got := map[string][]byte{}
	m.inspect = func(ep *episode) error {
		for _, id := range m.ids {
			b, err := os.ReadFile(filepath.Join(ep.dir, "audit", fleet.SanitizeID(id)+".jsonl"))
			if err != nil {
				return err
			}
			got[id] = b
		}
		return nil
	}
	if err := m.next(); err != nil {
		t.Fatal(err)
	}
	if len(m.blackoutMS) != 1 {
		t.Fatalf("%d migrations in the episode, want 1", len(m.blackoutMS))
	}

	spec := routedSpec(7, false)
	cfg, err := spec.FleetConfig(m.bundle, "")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Dynamic, cfg.Shards, cfg.Workers = false, 1, 1
	for _, id := range m.ids {
		cfg.Tenants = append(cfg.Tenants, spec.TenantConfig(id))
	}
	f, err := fleet.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	f.Run(routedRounds * spec.TickS)
	for _, tn := range f.Tenants() {
		if !bytes.Equal(got[tn.ID], tn.AuditLog()) {
			t.Errorf("tenant %s: routed audit log (%d bytes) differs from the single-process fleet's (%d bytes)",
				tn.ID, len(got[tn.ID]), len(tn.AuditLog()))
		}
	}
}
