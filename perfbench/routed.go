package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"graf/internal/bench"
	"graf/internal/obs"
	"graf/internal/rpc"
)

const (
	routedTenants = 16
	// An episode is routedRounds rounds on a fresh router and two fresh
	// shards. The planned migration runs after round routedMigrateAfter and
	// CheckpointAll after round routedCheckpointAfter, so every migration
	// moves a tenant of the same age: restore re-executes a tenant from
	// tick 0, and its cost grows with age.
	routedRounds          = 36
	routedMigrateAfter    = 18
	routedCheckpointAfter = 27
)

// routedSpec is the homogeneous surge population every routed tenant is
// built from (the rate rises by half 30 simulated seconds after warm-up).
func routedSpec(seed int64, trace bool) rpc.Spec {
	return rpc.Spec{
		App: "online-boutique", Shape: "surge", Rate: 120, SurgeTo: 180, SurgeAtS: 90,
		Seed: seed, TickS: tickS, WarmStart: true, Workers: 1, Trace: trace,
	}
}

func routedBundleFor(tr *bench.Trained) rpc.ModelBundle {
	return rpc.ModelBundle{Model: tr.Model, Bounds: tr.Bounds, SLO: tr.SLO, MinRate: tr.RateLo, MaxRate: tr.RateHi}
}

func routedIDs() []string {
	ids := make([]string, routedTenants)
	for i := range ids {
		ids[i] = fmt.Sprintf("tenant-%02d", i)
	}
	return ids
}

// routedMigrate is a router with a crash-safe state directory in front of
// two shard servers on loopback HTTP, with audit logs mirrored to disk and
// checkpoints written to a directory.
type routedMigrate struct {
	bundle rpc.ModelBundle
	seed   int64
	dir    string
	trc    *obs.Tracer
	reader *rpc.Client // the benchmark's own reads, kept off the router's metrics
	ids    []string

	ep       *episode
	episodes int
	// inspect, when set, sees each episode before it is torn down.
	inspect func(ep *episode) error
	q       quality
	first   string // digest of the first episode; every later one must match

	roundMS, solveRoundMS, shardTickMS, transportMS                          []float64
	migrateMS, blackoutMS, ckptMS                                            []float64
	heapMB                                                                   float64
	ticks, ages, attempts, retries, cacheHits, cacheMisses, batches, batched float64
	ckptBytes, lost, degraded, solves, boosts, holds                         float64
	spanSeen                                                                 map[[2]uint64]bool
	shardSpans                                                               []obs.TraceSpan
	start                                                                    rtSample
	problems                                                                 []string
}

// episode is one router + shards deployment.
type episode struct {
	dir    string
	shards []*rpc.ShardServer
	addrs  []string
	router *rpc.Router
	tel    *obs.Telemetry // router-side metrics
}

func newRoutedMigrate(tr *bench.Trained, seed int64, dir string, trc *obs.Tracer) (*routedMigrate, error) {
	m := &routedMigrate{
		bundle: routedBundleFor(tr),
		seed:   seed, dir: dir, trc: trc, ids: routedIDs(),
		reader:   rpc.NewClient(rpc.ClientConfig{Timeout: 30 * time.Second}, nil),
		q:        quality{horizon: routedRounds},
		spanSeen: map[[2]uint64]bool{},
	}
	if err := m.build(); err != nil {
		return nil, err
	}
	m.start = readRT(newRTBuf())
	return m, nil
}

func (m *routedMigrate) build() error {
	ep := &episode{dir: filepath.Join(m.dir, fmt.Sprintf("episode-%d", m.episodes)), tel: obs.New(obs.Options{})}
	m.ep = ep
	for i := 0; i < 2; i++ {
		sh := &rpc.ShardServer{
			Bundle:   m.bundle,
			CkptDir:  filepath.Join(ep.dir, "ckpt"),
			AuditDir: filepath.Join(ep.dir, "audit"),
			Tel:      obs.New(obs.Options{}),
		}
		addr, err := sh.Serve("127.0.0.1:0")
		if err != nil {
			return fmt.Errorf("routed-migrate: shard: %w", err)
		}
		ep.shards = append(ep.shards, sh)
		ep.addrs = append(ep.addrs, addr)
	}
	r, err := rpc.NewRouter(rpc.RouterConfig{
		Spec:     routedSpec(m.seed, m.trc != nil),
		Tenants:  m.ids,
		Client:   rpc.ClientConfig{Timeout: 30 * time.Second},
		StateDir: filepath.Join(ep.dir, "state"),
		Obs:      obs.NewRouterObs(ep.tel),
		RPCObs:   obs.NewRPCObs(ep.tel),
		Tracer:   m.trc,
	}, ep.addrs)
	if err != nil {
		return fmt.Errorf("routed-migrate: router: %w", err)
	}
	ep.router = r
	if err := r.Bootstrap(); err != nil {
		return fmt.Errorf("routed-migrate: bootstrap: %w", err)
	}
	return nil
}

// next runs one whole episode: every migration and checkpoint then happens
// at the same tenant age in every episode and every run.
func (m *routedMigrate) next() error {
	if m.ep == nil {
		if err := m.build(); err != nil {
			return err
		}
	}
	ep := m.ep
	tickH := make([]*obs.Histogram, len(ep.shards))
	for i, sh := range ep.shards {
		tickH[i] = sh.Tel.Reg.Histogram("graf_shard_op_seconds", "", nil, obs.Labels{"op": "tick"})
	}
	for round := 1; round <= routedRounds; round++ {
		before := make([]float64, len(tickH))
		for i, h := range tickH {
			before[i] = h.Sum()
		}
		sw := startWatch()
		if err := ep.router.RunRound(); err != nil {
			return fmt.Errorf("routed-migrate: round %d: %w", round, err)
		}
		d := ms(time.Since(sw.wall))
		m.q.timed(sw, routedTenants)
		m.roundMS = append(m.roundMS, d)
		slowest := 0.0
		for i, h := range tickH {
			t := (h.Sum() - before[i]) * 1e3
			m.shardTickMS = append(m.shardTickMS, t)
			slowest = max(slowest, t)
		}
		m.transportMS = append(m.transportMS, d-slowest)
		if err := m.observeRound(); err != nil {
			return err
		}
		switch round {
		case routedMigrateAfter:
			if err := m.migrate(); err != nil {
				return err
			}
		case routedCheckpointAfter:
			sw := startWatch()
			if _, err := ep.router.CheckpointAll(); err != nil {
				return fmt.Errorf("routed-migrate: checkpoint: %w", err)
			}
			m.ckptMS = append(m.ckptMS, ms(time.Since(sw.wall)))
			m.q.timed(sw, 0)
			m.ckptBytes += dirBytes(filepath.Join(ep.dir, "ckpt"))
		}
	}
	return m.endEpisode()
}

// observeRound reads, outside the timed calls, what the quality metrics
// and the trace need after a round.
func (m *routedMigrate) observeRound() error {
	ep := m.ep
	if m.q.counting() {
		quota := map[string]float64{}
		for _, addr := range ep.addrs {
			resp, err := m.reader.Quotas(addr)
			if err != nil {
				return fmt.Errorf("routed-migrate: quotas: %w", err)
			}
			for id, qs := range resp.Quotas {
				for _, v := range qs {
					quota[id] += v
				}
			}
		}
		for _, st := range ep.router.TenantStates() {
			m.q.window(quota[st.ID], tickS, st.P99, m.bundle.SLO, 0, 0)
		}
		m.q.units++
	}
	if m.trc != nil {
		// Shard tracers keep a bounded ring; collecting every round keeps
		// each tick's children together with the tick.
		for _, addr := range ep.addrs {
			resp, err := m.reader.Traces(addr)
			if err != nil {
				return fmt.Errorf("routed-migrate: traces: %w", err)
			}
			for _, s := range resp.Spans {
				k := [2]uint64{s.Trace, s.Span}
				if !m.spanSeen[k] {
					m.spanSeen[k] = true
					m.shardSpans = append(m.shardSpans, s)
				}
			}
		}
	}
	return nil
}

func (m *routedMigrate) migrate() error {
	ep := m.ep
	id := m.ids[int(uint64(m.seed)%routedTenants)]
	target := ep.addrs[0]
	if ep.router.Owner(id) == target {
		target = ep.addrs[1]
	}
	for _, st := range ep.router.TenantStates() {
		if st.ID == id {
			m.ages += float64(st.Ticks)
		}
	}
	span := m.trc.StartRoot("bench/migrate")
	sw := startWatch()
	blackout, err := ep.router.Migrate(id, target)
	m.migrateMS = append(m.migrateMS, ms(time.Since(sw.wall)))
	m.q.timed(sw, 0)
	span.End()
	if err != nil {
		return fmt.Errorf("routed-migrate: migrate %s: %w", id, err)
	}
	m.blackoutMS = append(m.blackoutMS, ms(blackout))
	return nil
}

// endEpisode checks the episode's invariants, folds its counters in and
// tears it down.
func (m *routedMigrate) endEpisode() error {
	ep := m.ep
	m.ep = nil
	defer func() {
		for _, sh := range ep.shards {
			// Shutdown's error is a final checkpoint into a directory that
			// is deleted next; the episode's checks have already run.
			_ = sh.Shutdown()
		}
		os.RemoveAll(ep.dir)
	}()
	if m.episodes == 0 {
		m.heapMB = liveHeapMB()
	}
	if m.inspect != nil {
		if err := m.inspect(ep); err != nil {
			return err
		}
	}
	dig := newDigest()
	for _, st := range ep.router.TenantStates() {
		m.ticks += float64(st.Ticks)
		if st.Degraded {
			m.degraded++
		}
		if st.Ticks != routedRounds {
			m.problem("tenant %s ran %d ticks, want %d", st.ID, st.Ticks, routedRounds)
		}
		dig.add(float64(st.Ticks), float64(st.AuditLen), float64(st.AuditFNV>>32), float64(st.AuditFNV&0xffffffff))
	}
	if m.first == "" {
		m.first = dig.String()
	} else if dig.String() != m.first {
		m.problem("episode %d decision digest %s differs from episode 0's %s", m.episodes, dig, m.first)
	}
	rs := ep.router.Stats()
	m.lost += float64(rs.LostDecisions)
	if rs.LostDecisions != 0 {
		m.problem("episode %d lost %d decisions", m.episodes, rs.LostDecisions)
	}
	for _, addr := range ep.addrs {
		h, err := m.reader.Health(addr)
		if err != nil {
			return fmt.Errorf("routed-migrate: healthz: %w", err)
		}
		if h.FencedAccepted != 0 || h.ExpiredExecuted != 0 {
			m.problem("shard %s: fenced_accepted=%d expired_executed=%d", addr, h.FencedAccepted, h.ExpiredExecuted)
		}
	}
	snap := ep.tel.Reg.Snapshot()
	m.attempts += snapSum(snap, "graf_rpc_attempts_total")
	m.retries += snapSum(snap, "graf_rpc_retries_total")
	for _, sh := range ep.shards {
		s := sh.Tel.Reg.Snapshot()
		m.cacheHits += snapSum(s, "graf_fleet_cache_hits_total")
		m.cacheMisses += snapSum(s, "graf_fleet_cache_misses_total")
		m.batches += snapSum(s, "graf_fleet_batches_total")
		m.batched += snapSum(s, "graf_fleet_batched_requests_total")
	}
	solveRounds, err := m.countDecisions(filepath.Join(ep.dir, "audit"))
	if err != nil {
		return err
	}
	rounds := m.roundMS[len(m.roundMS)-routedRounds:]
	for r := range solveRounds {
		m.solveRoundMS = append(m.solveRoundMS, rounds[r-1])
	}
	m.episodes++
	return nil
}

// countDecisions classifies every decision in the episode's on-disk audit
// logs (a solver run, a violation boost, or a kept configuration) and
// returns the rounds, numbered from 1, in which some tenant ran its solver.
func (m *routedMigrate) countDecisions(dir string) (map[int]bool, error) {
	solveRounds := map[int]bool{}
	paths, err := filepath.Glob(filepath.Join(dir, "*.jsonl"))
	if err != nil {
		return nil, err
	}
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		recs, err := obs.ReadLog(bytes.NewReader(b))
		if err != nil || len(recs) == 0 || recs[0].Type != "header" {
			return nil, fmt.Errorf("routed-migrate: audit %s: %d records, %v", p, len(recs), err)
		}
		start := recs[0].At // a tenant's ticks start where its header was written
		for _, rec := range recs {
			switch {
			case rec.Type != "decision":
			case rec.Iters > 0:
				m.solves++
				solveRounds[int((rec.At-start)/tickS)+1] = true
			case rec.Kind == "boost":
				m.boosts++
			default:
				m.holds++
			}
		}
	}
	return solveRounds, nil
}

func (m *routedMigrate) problem(format string, args ...any) {
	m.problems = append(m.problems, "routed-migrate: "+fmt.Sprintf(format, args...))
}

func (m *routedMigrate) unitsRun() int { return m.episodes }

func (m *routedMigrate) finish(r *result, ix *spanIndex) {
	rt := readRT(newRTBuf()).sub(m.start)
	wall := sum(m.roundMS) + sum(m.migrateMS) + sum(m.ckptMS)
	r.unitNS = int64(wall * 1e6)
	r.attempted = len(m.roundMS) + len(m.migrateMS) + len(m.ckptMS)
	r.failed = int(m.lost)
	r.problems = append(r.problems, m.problems...)
	r.digest = m.first
	m.q.report(r)
	r.set("round_ms.p50", quantile(m.roundMS, 0.5))
	r.set("round_ms.p90", quantile(m.roundMS, 0.9))
	r.set("solve_round_ms.p50", quantile(m.solveRoundMS, 0.5))
	r.set("tenant_ticks_per_core_s", perCore(m.ticks, r.unitNS))
	r.set("heap_live_mb", m.heapMB)

	r.set("fleet.cache.hit_frac", ratio(m.cacheHits, m.cacheHits+m.cacheMisses))
	r.set("fleet.batch.mean_size", ratio(m.batched, m.batches))
	r.set("fleet.degraded", m.degraded)
	r.set("rpc.shard_tick_ms.p50", quantile(m.shardTickMS, 0.5))
	r.set("rpc.transport_ms.p50", quantile(m.transportMS, 0.5))
	r.set("rpc.attempts", m.attempts)
	r.set("rpc.retries", m.retries)
	r.set("rpc.migrate.blackout_ms.p50", quantile(m.blackoutMS, 0.5))
	r.set("rpc.migrate.replayed_ticks", m.ages)
	r.set("rpc.migrate.ms_per_age_tick", ratio(sum(m.blackoutMS), m.ages))
	r.set("ckpt.checkpoint_all_ms", mean(m.ckptMS))
	r.set("ckpt.bytes", ratio(m.ckptBytes, float64(len(m.ckptMS))))
	r.set("runtime.gc_cpu_frac", ratio(rt.gcCPU, rt.totalCPU))
	r.set("runtime.alloc_bytes_per_tick", ratio(float64(rt.allocBytes), m.ticks))
	r.set("core.solve.calls", m.solves)
	r.set("core.boosts", m.boosts)
	r.set("core.holds", m.holds)
	r.set("fleet.solves", m.solves)
	if ix != nil {
		tickLayers(ix, r, 0, 0, 0)
	}
}

func (m *routedMigrate) spans() []obs.TraceSpan {
	return append(m.trc.Snapshot(), m.shardSpans...)
}

func (m *routedMigrate) close() {
	if m.ep != nil {
		for _, sh := range m.ep.shards {
			_ = sh.Shutdown() // the run is over; its directory is deleted next
		}
		m.ep = nil
	}
	os.RemoveAll(m.dir)
}

// dirBytes is the total size of the regular files under dir.
func dirBytes(dir string) float64 {
	t := 0.0
	filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			t += float64(info.Size())
		}
		return nil
	})
	return t
}
