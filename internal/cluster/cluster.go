// Package cluster simulates the container-orchestration substrate the paper
// runs on (Kubernetes, §2.1/§4): per-microservice deployments of replica
// instances, CPU quotas, instance-creation latency, request execution with
// per-deployment queueing, and the telemetry (CPU utilization, latency
// percentiles, traces, perceived workload) that GRAF and the baseline
// autoscalers consume.
//
// # Execution model
//
// Each microservice is a Deployment: a shared FIFO queue served by its ready
// Instances. An instance serves one request at a time; its service time is
// BaseMS (non-CPU floor) plus lognormal CPU work scaled by the per-instance
// CPU quota, so halving the quota doubles the CPU portion of the service
// time. After the instance is released the request executes its call tree:
// stages run sequentially, calls within a stage run in parallel, exactly the
// sum/max latency composition of §3 ("a combination of multiple addition and
// max operations").
//
// # Instance creation
//
// Creating instances takes time (paper Fig 1: 5.5 s for one instance,
// 45.6 s for a batch of 16). A batch of k instances requested together
// becomes ready one by one at StartupBaseS + j*StartupSlopeS (j = 1..k),
// reproducing both the single-instance delay and the batch completion times
// of Fig 1. This delay is the root cause of the cascading effect (§2.1).
package cluster

import (
	"fmt"
	"math"
	"sort"

	"graf/internal/app"
	"graf/internal/metrics"
	"graf/internal/obs"
	"graf/internal/sim"
	"graf/internal/trace"
)

// Config holds cluster-wide constants.
type Config struct {
	// CPUUnit is the CPU quota of one instance in millicores (the CPUunit
	// of Eq. 7). Scaling a deployment to quota r yields ceil(r/CPUUnit)
	// instances.
	CPUUnit float64

	// StartupBaseS and StartupSlopeS parameterize instance-creation time:
	// the j-th instance of a batch is ready after StartupBaseS +
	// j*StartupSlopeS seconds. Defaults fit the paper's Figure 1.
	StartupBaseS  float64
	StartupSlopeS float64

	// MinQuota floors any per-instance quota (millicores) to keep service
	// times finite.
	MinQuota float64

	// TraceCap bounds retained traces per API (0 = unbounded).
	TraceCap int

	// MaxRetries, RetryBaseS and QueueTimeoutS parameterize the call
	// layer's fault handling (the client side of each RPC). A job lost to
	// a crashed instance — or stuck in queue longer than QueueTimeoutS —
	// is retried up to MaxRetries times with exponential backoff starting
	// at RetryBaseS. Exhausted retries fail the call: the request
	// continues degraded (as with an upstream 5xx swallowed by the
	// caller) and the failure is surfaced in the deployment's error-rate
	// telemetry. QueueTimeoutS = 0 disables queue timeouts.
	MaxRetries    int
	RetryBaseS    float64
	QueueTimeoutS float64
}

// DefaultConfig returns the configuration used throughout the evaluation.
func DefaultConfig() Config {
	return Config{
		CPUUnit:       250,
		StartupBaseS:  2.8,
		StartupSlopeS: 2.67,
		MinQuota:      10,
		TraceCap:      4096,
		MaxRetries:    3,
		RetryBaseS:    0.25,
		QueueTimeoutS: 0,
	}
}

type instance struct {
	id        int
	ready     bool
	busy      bool
	condemned bool
	crashed   bool
	readyAt   float64
}

// job is one queued attempt of a call. It is also the attempt's
// queue-timeout event handler.
type job struct {
	run        *callRun
	enqueuedAt float64
	started    bool // dispatched to an instance
	dead       bool // timed out while queued; dispatch must skip it
}

// Deployment is one microservice's replica set.
type Deployment struct {
	Service app.Service

	cl        *Cluster
	queue     []*job // FIFO: queue[qhead:] are waiting
	qhead     int
	instances []*instance
	nextID    int

	quota float64 // total desired CPU quota in millicores

	// contention multiplies CPU work per request while an injected
	// contention anomaly is active (§6, "Actively removing contention
	// anomalies"): resource interference slows execution without any
	// change in workload or quota.
	contention float64

	// drift is a persistent work multiplier: a permanent mutation of the
	// queueing surface (a code regression, a dependency slowdown, a data
	//-set growth) that invalidates whatever latency model was trained
	// before it. Unlike contention it never expires — only retraining, not
	// patience, recovers the model's accuracy. 0 or 1 = none.
	drift float64

	// Telemetry.
	readySeries *metrics.Series // ready-instance count over time
	totalSeries *metrics.Series // created (ready+starting) count over time
	cpuWork     *metrics.Window // CPU-seconds consumed, stamped at completion
	selfLat     *metrics.Window // per-invocation self latency (s): queue+service
	arrivals    *metrics.Window // arrival timestamps (value 1)
	errors      *metrics.Window // failed attempts (crashes, timeouts), value 1

	// suppressUntil black-holes the deployment's metric writes (cpuWork,
	// selfLat, arrivals) until the given simulated time: a dead metrics
	// agent. Instance-count series are exempt — the control plane, not
	// the telemetry pipeline, reports those.
	suppressUntil float64
}

// Cluster simulates one application deployed on an orchestration substrate.
type Cluster struct {
	Eng *sim.Engine
	App *app.App
	Cfg Config

	deps        map[string]*Deployment
	names       []string
	traces      *trace.Collector
	e2e         map[string]*metrics.Window // end-to-end latency per API
	e2eAll      *metrics.Window            // end-to-end latency, all APIs
	apiArrivals map[string]*metrics.Window // frontend arrivals per API
	maxSpans    map[string]int             // spans in one fault-free request per API

	nextTraceID  int64
	inFlight     int
	onDoneDrain  func()
	createdTotal int

	// Fault-injection state (driven by internal/chaos).
	frontSuppressUntil float64 // frontend arrival+latency windows black-holed
	arrivalKeep        float64 // fraction of frontend arrivals recorded (1 = all)
	arrivalAcc         float64 // deterministic sampling accumulator
	traceDropP         float64 // probability a completed trace never reaches the collector

	killedTotal   int // instances killed by fault injection
	failedCalls   int // calls that exhausted their retries
	failedReqs    int // requests completing with ≥1 failed call
	droppedTraces int

	// Obs, if set, observes scale events and instance churn. Nil disables
	// the instrumentation.
	Obs *obs.ClusterObs
}

// New builds a cluster for application a on engine eng. Every deployment
// starts with one instance, already ready (as after an initial rollout).
func New(eng *sim.Engine, a *app.App, cfg Config) *Cluster {
	c := &Cluster{
		Eng:         eng,
		App:         a,
		Cfg:         cfg,
		deps:        make(map[string]*Deployment, len(a.Services)),
		traces:      trace.NewCollector(cfg.TraceCap),
		e2e:         make(map[string]*metrics.Window),
		e2eAll:      metrics.NewWindow(),
		arrivalKeep: 1,
	}
	for _, svc := range a.Services {
		d := &Deployment{
			Service:     svc,
			cl:          c,
			quota:       cfg.CPUUnit,
			readySeries: metrics.NewSeries(svc.Name + "/ready"),
			totalSeries: metrics.NewSeries(svc.Name + "/total"),
			cpuWork:     metrics.NewWindow(),
			selfLat:     metrics.NewWindow(),
			arrivals:    metrics.NewWindow(),
			errors:      metrics.NewWindow(),
		}
		inst := &instance{id: d.nextID, ready: true, readyAt: eng.Now()}
		d.nextID++
		d.instances = append(d.instances, inst)
		d.recordCounts()
		c.deps[svc.Name] = d
		c.names = append(c.names, svc.Name)
	}
	c.apiArrivals = make(map[string]*metrics.Window)
	c.maxSpans = make(map[string]int)
	for _, api := range a.APIs {
		c.e2e[api.Name] = metrics.NewWindow()
		c.apiArrivals[api.Name] = metrics.NewWindow()
		c.maxSpans[api.Name] = spanCount(api.Root)
	}
	return c
}

// APIArrivalRate returns the frontend arrival rate (req/s) for one API over
// the trailing window — the only workload signal GRAF's proactive path is
// allowed to use (§3.8: "Latency Prediction Model only utilizes front-end
// workloads data").
func (c *Cluster) APIArrivalRate(api string, window float64) float64 {
	w, ok := c.apiArrivals[api]
	if !ok {
		return 0
	}
	now := c.Eng.Now()
	from := now - window
	if from < 0 {
		from = 0
	}
	if now <= from {
		return 0
	}
	return float64(w.Count(from, now)) / (now - from)
}

// APIArrivalRates returns APIArrivalRate for every API.
func (c *Cluster) APIArrivalRates(window float64) map[string]float64 {
	out := make(map[string]float64, len(c.apiArrivals))
	for api := range c.apiArrivals {
		out[api] = c.APIArrivalRate(api, window)
	}
	return out
}

// Deployment returns the deployment for the named service. It panics on an
// unknown name (a wiring bug, not a runtime condition).
func (c *Cluster) Deployment(name string) *Deployment {
	d, ok := c.deps[name]
	if !ok {
		panic(fmt.Sprintf("cluster: unknown service %q", name))
	}
	return d
}

// Traces returns the cluster's trace collector.
func (c *Cluster) Traces() *trace.Collector { return c.traces }

// InFlight returns the number of requests currently executing.
func (c *Cluster) InFlight() int { return c.inFlight }

// CreatedTotal returns the cumulative number of instances ever created
// (excluding the initial one per deployment).
func (c *Cluster) CreatedTotal() int { return c.createdTotal }

// --- Deployment: scaling ---------------------------------------------------

func (d *Deployment) recordCounts() {
	now := d.cl.Eng.Now()
	ready, total := 0, 0
	for _, in := range d.instances {
		if in.condemned {
			continue
		}
		total++
		if in.ready {
			ready++
		}
	}
	d.readySeries.Add(now, float64(ready))
	d.totalSeries.Add(now, float64(total))
}

// Quota returns the deployment's desired total CPU quota in millicores.
func (d *Deployment) Quota() float64 { return d.quota }

// Replicas returns the number of non-condemned instances (ready or starting).
func (d *Deployment) Replicas() int {
	n := 0
	for _, in := range d.instances {
		if !in.condemned {
			n++
		}
	}
	return n
}

// ReadyReplicas returns the number of ready, non-condemned instances.
func (d *Deployment) ReadyReplicas() int {
	n := 0
	for _, in := range d.instances {
		if in.ready && !in.condemned {
			n++
		}
	}
	return n
}

// perInstanceQuota realizes the paper's round-up semantics (Eq. 7): above
// one CPU unit every instance runs at the full unit (the realized total
// overprovisions by at most one unit); below one unit a single instance is
// vertically sized. Latency is therefore monotone nonincreasing in quota.
func (d *Deployment) perInstanceQuota() float64 {
	if d.quota <= d.cl.Cfg.CPUUnit {
		q := d.quota
		if q < d.cl.Cfg.MinQuota {
			q = d.cl.Cfg.MinQuota
		}
		return q
	}
	return d.cl.Cfg.CPUUnit
}

// SetQuota scales the deployment to total CPU quota millicores, creating or
// condemning instances per Eq. 7 (replicas = ceil(quota/CPUUnit)).
func (d *Deployment) SetQuota(millicores float64) {
	if millicores < d.cl.Cfg.MinQuota {
		millicores = d.cl.Cfg.MinQuota
	}
	d.quota = millicores
	d.SetReplicas(int(math.Ceil(millicores / d.cl.Cfg.CPUUnit)))
}

// SetReplicas scales the deployment to n instances (n ≥ 1). Excess instances
// are condemned (busy ones finish their current request first); missing
// instances are created as one batch with Figure 1 startup latency.
func (d *Deployment) SetReplicas(n int) {
	if n < 1 {
		n = 1
	}
	cur := d.Replicas()
	switch {
	case n > cur:
		// Un-condemn instances first: cheaper than creating new ones.
		need := n - cur
		for _, in := range d.instances {
			if need == 0 {
				break
			}
			if in.condemned {
				in.condemned = false
				need--
			}
		}
		d.createBatch(need)
	case n < cur:
		d.condemn(cur - n)
	}
	d.recordCounts()
	if d.cl.Obs != nil && n != cur {
		d.cl.Obs.Scale(d.cl.Eng.Now(), d.Service.Name, cur, n)
	}
	d.dispatch()
}

func (d *Deployment) createBatch(k int) {
	now := d.cl.Eng.Now()
	for j := 1; j <= k; j++ {
		inst := &instance{id: d.nextID, readyAt: now + d.cl.Cfg.StartupBaseS + float64(j)*d.cl.Cfg.StartupSlopeS}
		d.nextID++
		d.instances = append(d.instances, inst)
		d.cl.createdTotal++
		in := inst
		d.cl.Eng.At(in.readyAt, func() {
			if in.condemned || in.crashed {
				return
			}
			in.ready = true
			d.recordCounts()
			if d.cl.Obs != nil {
				d.cl.Obs.Churn(d.Service.Name, 0, 0, 0, d.ReadyReplicas())
			}
			d.dispatch()
		})
	}
	if d.cl.Obs != nil && k > 0 {
		d.cl.Obs.Churn(d.Service.Name, k, 0, 0, d.ReadyReplicas())
	}
}

// condemn marks k instances for removal, preferring not-yet-ready ones, then
// idle ready ones, then busy ones (which retire after their current job).
func (d *Deployment) condemn(k int) {
	want := k
	mark := func(pred func(*instance) bool) {
		for i := len(d.instances) - 1; i >= 0 && k > 0; i-- {
			in := d.instances[i]
			if !in.condemned && pred(in) {
				in.condemned = true
				k--
			}
		}
	}
	mark(func(in *instance) bool { return !in.ready })
	mark(func(in *instance) bool { return in.ready && !in.busy })
	mark(func(in *instance) bool { return true })
	d.gc()
	if d.cl.Obs != nil && want-k > 0 {
		d.cl.Obs.Churn(d.Service.Name, 0, want-k, 0, d.ReadyReplicas())
	}
}

// gc drops condemned idle instances from the slice.
func (d *Deployment) gc() {
	kept := d.instances[:0]
	for _, in := range d.instances {
		if in.condemned && !in.busy {
			continue
		}
		kept = append(kept, in)
	}
	d.instances = kept
}

// --- Deployment: serving ---------------------------------------------------

func (d *Deployment) enqueue(j *job) {
	if d.telemetryOn() {
		d.arrivals.Add(d.cl.Eng.Now(), 1)
	}
	if d.qhead > 0 && len(d.queue) == cap(d.queue) {
		// Reclaim the consumed head before append would grow the buffer.
		n := copy(d.queue, d.queue[d.qhead:])
		clear(d.queue[n:])
		d.queue, d.qhead = d.queue[:n], 0
	}
	d.queue = append(d.queue, j)
	d.dispatch()
}

// popJob removes the head of the queue. An emptied queue rewinds to the
// start of its buffer, so a steady state reuses one buffer.
func (d *Deployment) popJob() {
	d.queue[d.qhead] = nil
	d.qhead++
	if d.qhead == len(d.queue) {
		d.queue, d.qhead = d.queue[:0], 0
	}
}

func (d *Deployment) freeInstance() *instance {
	for _, in := range d.instances {
		if in.ready && !in.busy && !in.condemned && !in.crashed {
			return in
		}
	}
	return nil
}

func (d *Deployment) dispatch() {
	for d.qhead < len(d.queue) {
		j := d.queue[d.qhead]
		if j.dead {
			d.popJob()
			continue
		}
		in := d.freeInstance()
		if in == nil {
			return
		}
		d.popJob()
		in.busy = true
		j.started = true
		j.run.serve(in, d.cl.Eng.Now()-j.enqueuedAt)
	}
}

// sampleServiceTime draws the service time in seconds at the current
// per-instance quota, and returns the CPU-seconds consumed.
func (d *Deployment) sampleServiceTime() (svcS, cpuS float64) {
	q := d.perInstanceQuota()
	work := d.Service.WorkMS
	if d.contention > 1 {
		work *= d.contention
	}
	if d.drift > 0 && d.drift != 1 {
		work *= d.drift
	}
	mean := work * 1000 / q // ms
	cv := d.Service.CV
	var workMS float64
	if cv <= 0 {
		workMS = mean
	} else {
		sigma2 := math.Log(1 + cv*cv)
		mu := math.Log(mean) - sigma2/2
		workMS = math.Exp(mu + math.Sqrt(sigma2)*d.cl.Eng.Rand().NormFloat64())
	}
	svcS = (d.Service.BaseMS + workMS) / 1000
	cpuS = workMS / 1000 * q / 1000 // CPU-seconds at q millicores
	return svcS, cpuS
}

func (d *Deployment) release(in *instance) {
	in.busy = false
	if in.condemned {
		d.gc()
		d.recordCounts()
	}
	d.dispatch()
}

// --- Telemetry accessors ---------------------------------------------------

// Utilization returns the deployment's mean CPU utilization over
// [now-window, now]: CPU-seconds consumed divided by quota-seconds available
// (mean ready replicas × per-instance quota × window). This is what the K8s
// HPA's CPU metric reads.
func (d *Deployment) Utilization(window float64) float64 {
	now := d.cl.Eng.Now()
	from := now - window
	if from < 0 {
		from = 0
	}
	if now <= from {
		return 0
	}
	used := 0.0
	for _, v := range d.cpuWork.Since(from, now) {
		used += v
	}
	meanReady := d.readySeries.Mean(from, now)
	if meanReady < 1 {
		meanReady = 1
	}
	avail := meanReady * d.perInstanceQuota() / 1000 * (now - from)
	if avail <= 0 {
		return 0
	}
	return used / avail
}

// CPUPerRequestMS returns the mean CPU consumed per request over the
// trailing window, in millicore·seconds per request ×1000 (i.e. cpu-ms).
// This is the per-service demand signal a cAdvisor-style collector
// observes; it returns 0 when no request completed in the window.
func (d *Deployment) CPUPerRequestMS(window float64) float64 {
	now := d.cl.Eng.Now()
	from := now - window
	if from < 0 {
		from = 0
	}
	vals := d.cpuWork.Since(from, now)
	if len(vals) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range vals {
		sum += v
	}
	return sum / float64(len(vals)) * 1000
}

// ArrivalRate returns the perceived workload in requests/s over the trailing
// window (the per-microservice workload of Fig 7).
func (d *Deployment) ArrivalRate(window float64) float64 {
	now := d.cl.Eng.Now()
	from := now - window
	if from < 0 {
		from = 0
	}
	if now <= from {
		return 0
	}
	return float64(d.arrivals.Count(from, now)) / (now - from)
}

// SelfLatencyQuantile returns the q-quantile of this service's queue+service
// latency (seconds) over the trailing window.
func (d *Deployment) SelfLatencyQuantile(q, window float64) float64 {
	now := d.cl.Eng.Now()
	from := now - window
	if from < 0 {
		from = 0
	}
	return d.selfLat.Quantile(q, from, now)
}

// ReadySeries returns the ready-instance-count time series.
func (d *Deployment) ReadySeries() *metrics.Series { return d.readySeries }

// TotalSeries returns the created-instance-count time series.
func (d *Deployment) TotalSeries() *metrics.Series { return d.totalSeries }

// ArrivalSeriesRate samples ArrivalRate-like data from recorded arrivals:
// the request rate in [t-window, t].
func (d *Deployment) ArrivalRateAt(t, window float64) float64 {
	from := t - window
	if from < 0 {
		from = 0
	}
	if t <= from {
		return 0
	}
	return float64(d.arrivals.Count(from, t)) / (t - from)
}

// ErrorRate returns failed call attempts per second (crashed-instance
// losses and queue timeouts, including ones later recovered by a retry)
// over the trailing window.
func (d *Deployment) ErrorRate(window float64) float64 {
	now := d.cl.Eng.Now()
	from := now - window
	if from < 0 {
		from = 0
	}
	if now <= from {
		return 0
	}
	return float64(d.errors.Count(from, now)) / (now - from)
}

// TrimTelemetry drops telemetry older than before to bound memory in long
// runs.
func (d *Deployment) TrimTelemetry(before float64) {
	d.cpuWork.Trim(before)
	d.selfLat.Trim(before)
	d.arrivals.Trim(before)
	d.errors.Trim(before)
}

// E2ELatencyQuantile returns the q-quantile of end-to-end latency (seconds)
// across all APIs over the trailing window.
func (c *Cluster) E2ELatencyQuantile(q, window float64) float64 {
	now := c.Eng.Now()
	from := now - window
	if from < 0 {
		from = 0
	}
	return c.e2eAll.Quantile(q, from, now)
}

// E2EWindow exposes the all-API end-to-end latency window.
func (c *Cluster) E2EWindow() *metrics.Window { return c.e2eAll }

// APILatencyQuantile returns the q-quantile of end-to-end latency (seconds)
// for one API over the trailing window.
func (c *Cluster) APILatencyQuantile(api string, q, window float64) float64 {
	w, ok := c.e2e[api]
	if !ok {
		return 0
	}
	now := c.Eng.Now()
	from := now - window
	if from < 0 {
		from = 0
	}
	return w.Quantile(q, from, now)
}

// TotalInstances returns the number of non-condemned instances across all
// deployments (ready + starting), the quantity Figures 2, 20 and 21 plot.
func (c *Cluster) TotalInstances() int {
	n := 0
	for _, name := range c.names {
		n += c.deps[name].Replicas()
	}
	return n
}

// RealizedQuota returns the CPU actually deployed for this service:
// replicas × per-instance quota. For quota-driven scaling this is the
// Eq. 7 round-up of the desired quota; for replica-driven scaling (HPA) it
// reflects the live replica count.
func (d *Deployment) RealizedQuota() float64 {
	return float64(d.Replicas()) * d.perInstanceQuota()
}

// TotalRealizedQuota sums RealizedQuota over all deployments.
func (c *Cluster) TotalRealizedQuota() float64 {
	q := 0.0
	for _, name := range c.names {
		q += c.deps[name].RealizedQuota()
	}
	return q
}

// RealizedQuotas returns the per-service realized quota map.
func (c *Cluster) RealizedQuotas() map[string]float64 {
	out := make(map[string]float64, len(c.names))
	for _, name := range c.names {
		out[name] = c.deps[name].RealizedQuota()
	}
	return out
}

// PendingInstances returns the number of created-but-not-yet-ready
// instances across all deployments.
func (c *Cluster) PendingInstances() int {
	n := 0
	for _, name := range c.names {
		d := c.deps[name]
		n += d.Replicas() - d.ReadyReplicas()
	}
	return n
}

// TotalQuota returns the sum of desired quotas in millicores.
func (c *Cluster) TotalQuota() float64 {
	q := 0.0
	for _, name := range c.names {
		q += c.deps[name].quota
	}
	return q
}

// Quotas returns the per-service quota map (copy).
func (c *Cluster) Quotas() map[string]float64 {
	out := make(map[string]float64, len(c.names))
	for _, name := range c.names {
		out[name] = c.deps[name].quota
	}
	return out
}

// InstancesFor returns the replica count Eq. 7 realizes for a desired
// quota — ceil(quota/CPUUnit), floored at the one instance SetQuota always
// keeps. The forecaster's pre-warm accounting uses it to know how many
// instances a quota change will order before actually applying it.
func (c *Cluster) InstancesFor(quota float64) int {
	n := int(math.Ceil(quota / c.Cfg.CPUUnit))
	if n < 1 {
		n = 1
	}
	return n
}

// StartupSeconds returns the Figure-1 readiness latency of an n-instance
// batch: the last instance of a batch of n becomes ready StartupBaseS +
// n·StartupSlopeS seconds after the order.
func (c *Cluster) StartupSeconds(n int) float64 {
	if n < 1 {
		n = 1
	}
	return c.Cfg.StartupBaseS + float64(n)*c.Cfg.StartupSlopeS
}

// ApplyQuotas scales every deployment named in quotas.
func (c *Cluster) ApplyQuotas(quotas map[string]float64) {
	// Deterministic order.
	names := make([]string, 0, len(quotas))
	for n := range quotas {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		c.Deployment(n).SetQuota(quotas[n])
	}
}

// TrimTelemetry trims all deployments and e2e windows.
func (c *Cluster) TrimTelemetry(before float64) {
	for _, name := range c.names {
		c.deps[name].TrimTelemetry(before)
	}
	c.e2eAll.Trim(before)
	for _, w := range c.e2e {
		w.Trim(before)
	}
	for _, w := range c.apiArrivals {
		w.Trim(before)
	}
}

// --- Request execution -----------------------------------------------------

// Submit injects one request for the named API at the current simulated
// time. onDone, if non-nil, receives the end-to-end latency in seconds when
// the request completes.
func (c *Cluster) Submit(api string, onDone func(latency float64)) {
	ap := c.App.API(api)
	if ap == nil {
		panic(fmt.Sprintf("cluster: unknown API %q", api))
	}
	c.nextTraceID++
	r := &request{c: c, api: api, start: c.Eng.Now(), onDone: onDone}
	r.tr = trace.Trace{ID: c.nextTraceID, API: api, Spans: make([]trace.Span, 0, c.maxSpans[api])}
	c.recordArrival(api, r.start)
	c.inFlight++
	r.exec(ap.Root, nil)
}

// recordArrival stamps one frontend arrival, subject to the telemetry
// fault taps: a full blackhole window drops it, and arrival sampling keeps
// only a deterministic arrivalKeep fraction.
func (c *Cluster) recordArrival(api string, at float64) {
	if !c.frontendTelemetryOn() {
		return
	}
	if c.arrivalKeep < 1 {
		c.arrivalAcc += c.arrivalKeep
		if c.arrivalAcc < 1 {
			return
		}
		c.arrivalAcc--
	}
	c.apiArrivals[api].Add(at, 1)
}

// spanCount returns the spans one request records through call when no
// call fails: one per repetition of every node.
func spanCount(call *app.Call) int {
	n := 1
	for _, stage := range call.Stages {
		for _, child := range stage {
			n += spanCount(child)
		}
	}
	return call.Times() * n
}

// request is one in-flight frontend request: the trace its calls build and
// the caller's completion callback.
type request struct {
	c      *Cluster
	api    string
	start  float64
	tr     trace.Trace
	onDone func(latency float64)
}

// finish records the request once its root call has returned.
func (r *request) finish() {
	c := r.c
	lat := c.Eng.Now() - r.start
	if c.frontendTelemetryOn() {
		c.e2e[r.api].Add(c.Eng.Now(), lat)
		c.e2eAll.Add(c.Eng.Now(), lat)
	}
	if c.traceDropP > 0 && c.Eng.Rand().Float64() < c.traceDropP {
		c.droppedTraces++
	} else {
		c.traces.Collect(r.tr)
	}
	if r.tr.Errors > 0 {
		c.failedReqs++
	}
	c.inFlight--
	if r.onDone != nil {
		r.onDone(lat)
	}
	if c.inFlight == 0 && c.onDoneDrain != nil {
		c.onDoneDrain()
	}
}

// exec starts one Call node of the request; parent is the calling node
// (nil for the frontend call).
func (r *request) exec(call *app.Call, parent *callRun) {
	cr := &callRun{req: r, parent: parent, call: call, d: r.c.Deployment(call.Service)}
	cr.startRep()
}

// callRun is the state machine of one Call node: Times() sequential
// repetitions of (queue → service → stages). Each repetition is one RPC at
// the call layer: a job lost to a crashed instance, or stuck queued past the
// queue timeout, is retried with exponential backoff up to Cfg.MaxRetries
// times; exhausted retries fail the call and the request continues degraded
// (the caller swallows the error), annotated on the trace.
//
// A callRun is the handler of its service-completion and backoff events;
// each attempt's job handles that attempt's queue timeout. A call has at
// most one of its own events pending at a time.
type callRun struct {
	req    *request
	parent *callRun // nil for the frontend call
	call   *app.Call
	d      *Deployment

	rep     int     // current repetition
	enq     float64 // when the current repetition first queued
	try     int     // current attempt within the repetition
	backoff bool    // the pending event is a retry backoff, not service

	// The attempt being served.
	in         *instance
	queued     float64
	svcS, cpuS float64

	stage     int // stage of call.Stages being run
	remaining int // children of that stage still out
}

// startRep begins the next repetition, or returns to the caller after the
// last one.
func (cr *callRun) startRep() {
	if cr.rep == cr.call.Times() {
		if cr.parent != nil {
			cr.parent.childDone()
		} else {
			cr.req.finish()
		}
		return
	}
	cr.enq = cr.req.c.Eng.Now()
	cr.try = 0
	cr.attempt()
}

// attempt queues one try of the current repetition.
func (cr *callRun) attempt() {
	c := cr.req.c
	j := &job{run: cr, enqueuedAt: c.Eng.Now()}
	if c.Cfg.QueueTimeoutS > 0 {
		c.Eng.AfterHandler(c.Cfg.QueueTimeoutS, j)
	}
	cr.d.enqueue(j)
}

// Fire is the attempt's queue timeout: a job still waiting for an instance
// fails its attempt.
func (j *job) Fire() {
	if j.started || j.dead {
		return
	}
	j.dead = true
	j.run.retryOrFail()
}

// serve runs the dispatched attempt on instance in.
func (cr *callRun) serve(in *instance, queued float64) {
	cr.in, cr.queued = in, queued
	cr.svcS, cr.cpuS = cr.d.sampleServiceTime()
	cr.backoff = false
	cr.req.c.Eng.AfterHandler(cr.svcS, cr)
}

// retryOrFail runs after a failed attempt: backoff-retry while budget
// remains, otherwise fail the call. Each attempt fails at most once (the
// queue-timeout and crash paths are mutually exclusive via job.started), so
// a completed request is never duplicated by a retry.
func (cr *callRun) retryOrFail() {
	c := cr.req.c
	cr.d.errors.Add(c.Eng.Now(), 1)
	if cr.try < c.Cfg.MaxRetries {
		cr.backoff = true
		c.Eng.AfterHandler(c.Cfg.RetryBaseS*math.Pow(2, float64(cr.try)), cr)
		return
	}
	c.failedCalls++
	cr.req.tr.Errors++
	cr.rep++
	cr.startRep()
}

// Fire handles the call's pending event: a backoff that has elapsed, or
// the end of the attempt's service time.
func (cr *callRun) Fire() {
	if cr.backoff {
		cr.try++
		cr.attempt()
		return
	}
	if cr.in.crashed {
		// The instance died under the request: its work and telemetry
		// are lost.
		cr.retryOrFail()
		return
	}
	now := cr.req.c.Eng.Now()
	if cr.d.telemetryOn() {
		cr.d.cpuWork.Add(now, cr.cpuS)
		cr.d.selfLat.Add(now, cr.queued+cr.svcS)
	}
	cr.d.release(cr.in)
	cr.in = nil
	// Service work done; run the stages, then record the span.
	cr.stage = 0
	cr.runStages()
}

// runStages runs call.Stages[cr.stage:] sequentially; within a stage all
// children run in parallel.
func (cr *callRun) runStages() {
	stages := cr.call.Stages
	for cr.stage < len(stages) && len(stages[cr.stage]) == 0 {
		cr.stage++
	}
	if cr.stage == len(stages) {
		cr.endRep()
		return
	}
	stage := stages[cr.stage]
	cr.remaining = len(stage)
	for _, child := range stage {
		cr.req.exec(child, cr)
	}
}

// childDone is a child call returning; the last one of a stage starts the
// next stage.
func (cr *callRun) childDone() {
	cr.remaining--
	if cr.remaining == 0 {
		cr.stage++
		cr.runStages()
	}
}

// endRep records the repetition's span and moves on to the next one.
func (cr *callRun) endRep() {
	r := cr.req
	parent := ""
	if cr.parent != nil {
		parent = cr.parent.call.Service
	}
	r.tr.Spans = append(r.tr.Spans, trace.Span{
		TraceID: r.tr.ID, API: r.api,
		Service: cr.call.Service, Parent: parent,
		Start: cr.enq, End: r.c.Eng.Now(), Queue: cr.queued,
	})
	cr.rep++
	cr.startRep()
}

// OnDrain registers fn to run whenever in-flight requests reach zero.
func (c *Cluster) OnDrain(fn func()) { c.onDoneDrain = fn }

// InjectContention slows the named service's CPU work by factor (> 1) for
// duration seconds (svc == "" contends every service), simulating the
// unexpected resource interference of §6: latency spikes with no change in
// workload or allocated quota. Overlapping injections keep the largest
// factor until both expire.
func (c *Cluster) InjectContention(svc string, factor, duration float64) {
	if factor <= 1 {
		return
	}
	apply := func(d *Deployment) {
		prev := d.contention
		if factor > prev {
			d.contention = factor
		}
		c.Eng.After(duration, func() {
			if d.contention == factor {
				d.contention = prev
			}
		})
	}
	if svc == "" {
		for _, name := range c.names {
			apply(c.deps[name])
		}
		return
	}
	apply(c.Deployment(svc))
}

// Contention returns the service's current contention factor (1 = none).
func (d *Deployment) Contention() float64 {
	if d.contention < 1 {
		return 1
	}
	return d.contention
}

// --- Fault injection (the substrate hooks internal/chaos drives) -----------

// KillInstances abruptly terminates up to n instances of the deployment — a
// crash, not a graceful condemnation. Busy instances lose their in-flight
// job (the call layer retries it with backoff), and the deployment
// immediately starts replacement instances to meet its desired quota,
// paying the Figure-1 startup delay. Returns how many were killed.
func (d *Deployment) KillInstances(n int) int {
	killed := 0
	// Prefer ready instances: a correlated failure takes out running pods
	// first. Fall back to still-starting ones.
	for _, pred := range []func(*instance) bool{
		func(in *instance) bool { return in.ready },
		func(in *instance) bool { return true },
	} {
		for _, in := range d.instances {
			if killed == n {
				break
			}
			if in.crashed || in.condemned || !pred(in) {
				continue
			}
			in.crashed = true
			in.ready = false
			killed++
		}
	}
	if killed == 0 {
		return 0
	}
	d.cl.killedTotal += killed
	kept := d.instances[:0]
	for _, in := range d.instances {
		if in.crashed {
			continue
		}
		kept = append(kept, in)
	}
	d.instances = kept
	// Replace the lost capacity, like a ReplicaSet restoring its desired
	// count: the restart pays the full startup latency.
	want := int(math.Ceil(d.quota / d.cl.Cfg.CPUUnit))
	if want < 1 {
		want = 1
	}
	if missing := want - d.Replicas(); missing > 0 {
		d.createBatch(missing)
	}
	d.recordCounts()
	if d.cl.Obs != nil {
		d.cl.Obs.Churn(d.Service.Name, 0, 0, killed, d.ReadyReplicas())
	}
	d.dispatch()
	return killed
}

// SuppressTelemetry black-holes the deployment's telemetry for duration
// seconds: CPU, self-latency and arrival observations are dropped, so
// trailing-window reads go empty or stale — a dead metrics agent.
func (d *Deployment) SuppressTelemetry(duration float64) {
	until := d.cl.Eng.Now() + duration
	if until > d.suppressUntil {
		d.suppressUntil = until
	}
}

func (d *Deployment) telemetryOn() bool { return d.cl.Eng.Now() >= d.suppressUntil }

// KillInstances kills up to n instances of the named service.
func (c *Cluster) KillInstances(svc string, n int) int {
	return c.Deployment(svc).KillInstances(n)
}

// CrashFraction kills ceil(frac × replicas) instances of every deployment —
// a correlated failure such as a node loss or an availability-zone outage.
// Returns the total number of instances killed.
func (c *Cluster) CrashFraction(frac float64) int {
	if frac <= 0 {
		return 0
	}
	if frac > 1 {
		frac = 1
	}
	total := 0
	for _, name := range c.names {
		d := c.deps[name]
		total += d.KillInstances(int(math.Ceil(frac * float64(d.Replicas()))))
	}
	return total
}

// SuppressFrontendTelemetry black-holes the frontend's arrival and
// end-to-end latency windows for duration seconds: every signal the
// proactive controller reads goes silent while requests keep flowing.
func (c *Cluster) SuppressFrontendTelemetry(duration float64) {
	until := c.Eng.Now() + duration
	if until > c.frontSuppressUntil {
		c.frontSuppressUntil = until
	}
}

func (c *Cluster) frontendTelemetryOn() bool { return c.Eng.Now() >= c.frontSuppressUntil }

// SetArrivalSampling keeps only fraction keep (0..1) of frontend arrival
// observations, on a deterministic pattern — a telemetry pipeline that
// samples or drops the workload signal, so rate reads under-report by
// 1/keep. 1 restores full fidelity.
func (c *Cluster) SetArrivalSampling(keep float64) {
	if keep < 0 {
		keep = 0
	}
	if keep > 1 {
		keep = 1
	}
	c.arrivalKeep = keep
	c.arrivalAcc = 0
}

// SetTraceDrop makes each completed trace vanish before reaching the
// collector with probability p (0 restores lossless collection).
func (c *Cluster) SetTraceDrop(p float64) {
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	c.traceDropP = p
}

// InjectSurfaceDrift permanently multiplies the named service's CPU work
// per request by factor (svc == "" applies it to every service). This is a
// drift of the queueing surface itself, not a transient anomaly: the
// latency-vs-quota relationship the GNN learned no longer holds, and stays
// wrong until a model retrained on post-drift telemetry replaces it.
// Repeated injections compose multiplicatively.
func (c *Cluster) InjectSurfaceDrift(svc string, factor float64) {
	if factor <= 0 {
		return
	}
	apply := func(d *Deployment) {
		if d.drift <= 0 {
			d.drift = 1
		}
		d.drift *= factor
	}
	if svc == "" {
		for _, name := range c.names {
			apply(c.deps[name])
		}
		return
	}
	apply(c.Deployment(svc))
}

// SurfaceDrift returns the service's current persistent work multiplier
// (1 = none).
func (d *Deployment) SurfaceDrift() float64 {
	if d.drift <= 0 {
		return 1
	}
	return d.drift
}

// CorruptTelemetry injects n bogus observations into the frontend telemetry
// at the current instant: n end-to-end latency samples of latS seconds into
// the e2e window and n phantom arrivals into every API's arrival window — a
// scrape glitch or a poisoned exporter, not anything the cluster actually
// served. Downstream consumers that read these windows raw see a latency
// spike and a rate surge that never happened.
func (c *Cluster) CorruptTelemetry(latS float64, n int) {
	now := c.Eng.Now()
	for i := 0; i < n; i++ {
		c.e2eAll.Add(now, latS)
	}
	for _, api := range c.App.APIs {
		w, ok := c.apiArrivals[api.Name]
		if !ok {
			continue
		}
		for i := 0; i < n; i++ {
			w.Add(now, 1)
		}
	}
}

// KilledTotal returns the cumulative number of instances killed by fault
// injection.
func (c *Cluster) KilledTotal() int { return c.killedTotal }

// FailedCalls returns how many calls exhausted their retries.
func (c *Cluster) FailedCalls() int { return c.failedCalls }

// FailedRequests returns how many requests completed with at least one
// failed call (a degraded response).
func (c *Cluster) FailedRequests() int { return c.failedReqs }

// DroppedTraces returns how many traces were lost before the collector.
func (c *Cluster) DroppedTraces() int { return c.droppedTraces }

// LastArrivalAt returns the timestamp of the most recent recorded frontend
// arrival across all APIs, and whether any exists — the freshness signal a
// stale-telemetry detector compares against the clock.
func (c *Cluster) LastArrivalAt() (float64, bool) {
	best, any := 0.0, false
	for _, w := range c.apiArrivals {
		if at, ok := w.LastAt(); ok && (!any || at > best) {
			best, any = at, true
		}
	}
	return best, any
}

// LastDeploymentTelemetryAt returns the timestamp of the most recent
// deployment-level telemetry observation (arrivals or CPU samples) across
// all deployments, and whether any exists. A controller seeing the frontend
// signal go dark uses this as corroborating evidence that the cluster is
// still serving traffic — a frontend blackhole leaves deployment telemetry
// flowing, while a genuine traffic stop silences both.
func (c *Cluster) LastDeploymentTelemetryAt() (float64, bool) {
	best, any := 0.0, false
	for _, d := range c.deps {
		if at, ok := d.arrivals.LastAt(); ok && (!any || at > best) {
			best, any = at, true
		}
		if at, ok := d.cpuWork.LastAt(); ok && (!any || at > best) {
			best, any = at, true
		}
	}
	return best, any
}
