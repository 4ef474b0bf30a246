package main

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"runtime"
	"runtime/pprof"

	"repro/internal/faults"
	"repro/internal/grid"
	"repro/internal/hdl"
	"repro/internal/obs"
	"repro/internal/rms"
	"repro/internal/sched"
	"repro/internal/sim"
)

// gridWorkload drives grid.Engine through its public set-up steps, one
// replica after another, each from inputs generated from the run seed.
type gridWorkload struct {
	name   string
	grid   grid.GridSpec
	work   grid.WorkloadSpec
	faults *faults.Spec
	// sampleEvery is the gauge sampling interval in simulated seconds
	// (0 = off).
	sampleEvery float64
	// inputs is how many distinct replica inputs a run draws and cycles
	// through until the time budget is spent. The model metrics (sim_*,
	// turnaround percentiles, layer counts) and the allocation counts
	// come from the first pass, so they are identical for a seed however
	// long the run is; the host-time metrics take each input's fastest
	// repetition.
	inputs int
	// clean requires every task to complete (no fault model).
	clean bool

	tc      *hdl.Toolchain
	nodeIDs []string
}

// backlogWorkload is the FaultSweep "moderate" shape: a 150-task burst on
// the small default grid, so tasks queue and grid dispatch retries rms
// allocation (with fabric compaction) many times per placement, while
// crashes and SEUs exercise leases, retries and recovery.
func backlogWorkload() *gridWorkload {
	f := faults.Default()
	f.CrashRate = 0.01
	f.MeanOutageSeconds = 20
	f.SEURate = 0.02
	f.Retry = faults.RetryPolicy{MaxRetries: 6, BackoffSeconds: 0.5, BackoffCapSeconds: 15}
	// Explicit, so the decomposed path and grid.RunScenario inject the
	// same schedule without RunScenario deriving a horizon of its own.
	f.HorizonSeconds = 300
	return &gridWorkload{
		name:   "grid-backlog",
		grid:   grid.DefaultGridSpec(),
		work:   grid.DefaultWorkload(150, 1),
		faults: &f,
		inputs: 150,
	}
}

// streamWorkload is a long under-capacity stream on a 4 GPP + 4 hybrid
// grid: every arrival is scheduled up front, so tens of thousands of
// events sit in the wheel's overflow heap, each task places at its first
// attempt, and the streaming CSV sink plus gauge sampling carry a large
// share of the work.
func streamWorkload() *gridWorkload {
	g := grid.DefaultGridSpec()
	g.GPPNodes = 4
	g.HybridNodes = 4
	return &gridWorkload{
		name:        "grid-stream",
		grid:        g,
		work:        grid.DefaultWorkload(60000, 0.1),
		sampleEvery: 60,
		inputs:      2,
		clean:       true,
	}
}

func (w *gridWorkload) init() error {
	tc, err := grid.DefaultToolchain()
	if err != nil {
		return err
	}
	reg, err := grid.BuildGrid(w.grid)
	if err != nil {
		return err
	}
	w.tc = tc
	for _, n := range reg.Nodes() {
		w.nodeIDs = append(w.nodeIDs, n.ID)
	}
	return nil
}

// replicaInput is everything one replica receives: the task stream and
// the fault schedule, both drawn from the replica seed exactly as
// grid.RunScenario would draw them.
type replicaInput struct {
	seed   uint64
	gen    []grid.Generated
	faults []faults.Event
}

func (w *gridWorkload) input(runSeed uint64, i int) (replicaInput, error) {
	seed := sim.NewRNG(runSeed).SplitSeed(uint64(i))
	gen, err := grid.Generate(sim.NewRNG(seed), w.work)
	if err != nil {
		return replicaInput{}, err
	}
	in := replicaInput{seed: seed, gen: gen}
	if w.faults != nil {
		in.faults, err = faults.Schedule(sim.NewRNG(seed).Split(faults.ScheduleStream), *w.faults, w.nodeIDs)
		if err != nil {
			return replicaInput{}, err
		}
	}
	return in, nil
}

// config is the engine configuration both passes share; the traced pass
// swaps wrappers into the Scheduler, Strategy and Tracer seams.
func (w *gridWorkload) config(tracer obs.TraceSink) grid.Config {
	cfg := grid.DefaultConfig()
	cfg.Strategy = sched.ReconfigAware{}
	cfg.SampleEverySeconds = w.sampleEvery
	cfg.Faults = w.faults
	cfg.Tracer = tracer
	return cfg
}

// probes are one traced replica's seam wrappers.
type probes struct {
	q    *queueLayer
	st   *strategyLayer
	sink *sinkLayer
}

// replicaOut is one replica's result and host-side cost.
type replicaOut struct {
	m                 *grid.Metrics
	buildNS, submitNS int64
	runNS             int64
	csvBytes          int64
	p                 *probes // traced pass only
}

func (o replicaOut) setupNS() int64 { return o.buildNS + o.submitNS }

// runReplica executes one replica through grid's public steps. With a
// span log it installs the wrappers and records set-up and run spans.
func (w *gridWorkload) runReplica(ctx context.Context, in replicaInput, log *spanLog, root int) (replicaOut, error) {
	var out replicaOut
	cw := &countingWriter{}
	csv := obs.NewCSV(cw)
	cfg := w.config(csv)
	if log != nil {
		p := &probes{
			q:    &queueLayer{},
			st:   &strategyLayer{inner: cfg.Strategy},
			sink: newSinkLayer(csv),
		}
		cfg.Scheduler = func() sim.Scheduler { return p.q.wrap(sim.NewWheelQueue()) }
		cfg.Strategy = p.st
		cfg.Tracer = p.sink
		out.p = p
	}
	var rep, step int
	if log != nil {
		rep = log.open(root, "replica")
		step = log.open(rep, "grid.build")
	}
	t0 := nowNS()
	reg, err := grid.BuildGrid(w.grid)
	if err != nil {
		return out, err
	}
	mm, err := rms.NewMatchmaker(reg, w.tc)
	if err != nil {
		return out, err
	}
	eng, err := grid.NewEngine(cfg, reg, mm)
	if err != nil {
		return out, err
	}
	if len(in.faults) > 0 {
		eng.InjectFaults(in.faults)
	}
	t1 := nowNS()
	var q0 queueLayer
	if log != nil {
		log.end(step)
		step = log.open(rep, "grid.submit")
		q0 = *out.p.q
	}
	if err := eng.SubmitWorkload(in.gen, "bench"); err != nil {
		return out, err
	}
	t2 := nowNS()
	if log != nil {
		log.end(step)
		log.aggregate(step, "sim.queue", out.p.q.calls-q0.calls, out.p.q.busyNS-q0.busyNS)
		step = log.open(rep, "grid.run")
		q0 = *out.p.q
	}
	m, err := eng.Run(ctx)
	if err != nil {
		return out, err
	}
	t3 := nowNS()
	if log != nil {
		log.end(step)
		p := out.p
		log.aggregate(step, "sim.queue", p.q.calls-q0.calls, p.q.busyNS-q0.busyNS)
		log.aggregate(step, "sched.choose", p.st.calls, p.st.busyNS)
		log.aggregate(step, "obs.sink", p.sink.emits+p.sink.samples, p.sink.busyNS)
		log.end(rep)
	}
	if err := csv.Close(); err != nil {
		return out, fmt.Errorf("csv sink: %w", err)
	}
	out.m = m
	out.buildNS, out.submitNS, out.runNS = t1-t0, t2-t1, t3-t2
	out.csvBytes = cw.n
	return out, nil
}

// check returns the output checks one replica fails.
func (w *gridWorkload) check(in replicaInput, o replicaOut) []string {
	m := o.m
	var bad []string
	if m.Submitted != len(in.gen) {
		bad = append(bad, fmt.Sprintf("submitted %d of %d tasks", m.Submitted, len(in.gen)))
	}
	if m.Submitted != m.Completed+m.Unfinished+m.TasksLost {
		bad = append(bad, fmt.Sprintf("conservation: submitted %d != completed %d + unfinished %d + lost %d",
			m.Submitted, m.Completed, m.Unfinished, m.TasksLost))
	}
	if w.clean && m.Unfinished+m.TasksLost != 0 {
		bad = append(bad, fmt.Sprintf("%d unfinished and %d lost tasks on a fault-free stream", m.Unfinished, m.TasksLost))
	}
	if o.p != nil {
		bad = append(bad, crossCheck(m, o.p)...)
	}
	return bad
}

// crossCheck compares the traced wrappers' counts with the engine's own
// Metrics: every counter below has one emission site in the engine.
func crossCheck(m *grid.Metrics, p *probes) []string {
	k := p.sink.kinds
	var bad []string
	for _, c := range []struct {
		name          string
		trace, metric int
	}{
		{"queued", k[obs.KindQueued], m.Submitted},
		{"complete", k[obs.KindComplete], m.Completed},
		{"reconfig", k[obs.KindReconfig], m.Reconfigs},
		{"fail", k[obs.KindFail], m.Failures},
		{"lost", k[obs.KindLost], m.TasksLost},
		{"retry", k[obs.KindRetry], m.Retries},
		{"node-down", k[obs.KindNodeDown], m.NodeCrashes},
		{"node-up", k[obs.KindNodeUp], m.NodeRecoveries},
		{"seu", k[obs.KindSEU], m.SEUFaults},
		{"link-degraded", k[obs.KindLinkDegraded], m.LinkFaults},
		{"lease-expired", k[obs.KindLeaseExpired], m.LeaseExpiries},
		// Every placement ends in a completion, a retry or a loss.
		{"dispatch", k[obs.KindDispatch], m.Completed + m.Retries + m.TasksLost},
	} {
		if c.trace != c.metric {
			bad = append(bad, fmt.Sprintf("trace %s events %d != metrics %d", c.name, c.trace, c.metric))
		}
	}
	dispatches := int64(k[obs.KindDispatch])
	if p.st.chosen < dispatches {
		bad = append(bad, fmt.Sprintf("%d dispatches from %d allocate attempts", dispatches, p.st.chosen))
	}
	if p.q.pushes < p.q.events {
		bad = append(bad, fmt.Sprintf("%d events executed from %d pushes", p.q.events, p.q.pushes))
	}
	return bad
}

// gridPass is what one pass over replicas measured.
type gridPass struct {
	replicas                    int
	submitted, completed, lossy int
	// bestNS and bestCPU are, per input, the shortest timed interval and
	// the least CPU time over that input's repetitions; done is the
	// input's completed tasks.
	bestNS, bestCPU []int64
	done            []int
	allocs, bytes   uint64
	setupNS         []float64
	model           []*grid.Metrics // one per input
	outs            []replicaOut    // traced pass: the first repetition of each input
	checks          []string
}

// fastest returns the completed tasks of one pass over the inputs per
// host second and the CPU milliseconds per task, each input counted at
// its fastest repetition.
func (gp *gridPass) fastest() (tasksPerS, cpuMSPerTask float64) {
	var done, ns, cpu float64
	for i := range gp.done {
		done += float64(gp.done[i])
		ns += float64(gp.bestNS[i])
		cpu += float64(gp.bestCPU[i])
	}
	return done / (ns / 1e9), cpu / 1e6 / done
}

// pass cycles through the inputs until every input has run once and the
// time budget is spent. Only set-up and Run are timed; input generation
// and checks happen between the measurements. A repeated input must
// reproduce its first Metrics exactly.
func (w *gridWorkload) pass(ctx context.Context, seed uint64, budgetNS int64, log *spanLog, root int) (*gridPass, error) {
	gp := &gridPass{bestNS: make([]int64, w.inputs), bestCPU: make([]int64, w.inputs), done: make([]int, w.inputs)}
	start := nowNS()
	var ms runtime.MemStats
	for i := 0; i < w.inputs || nowNS()-start < budgetNS; i++ {
		k := i % w.inputs
		in, err := w.input(seed, k)
		if err != nil {
			return nil, err
		}
		// Every replica starts from a collected heap, as its fabrics
		// start empty: the previous replica's garbage is not its cost.
		runtime.GC()
		runtime.ReadMemStats(&ms)
		a0, b0 := ms.Mallocs, ms.TotalAlloc
		c0 := cpuNS()
		o, err := w.runReplica(ctx, in, log, root)
		if err != nil {
			return nil, fmt.Errorf("replica %d: %w", i, err)
		}
		cpu := cpuNS() - c0
		runtime.ReadMemStats(&ms)
		host := o.setupNS() + o.runNS
		gp.setupNS = append(gp.setupNS, float64(o.setupNS()))
		gp.replicas++
		gp.submitted += o.m.Submitted
		gp.completed += o.m.Completed
		gp.lossy += o.m.Unfinished + o.m.TasksLost
		for _, c := range w.check(in, o) {
			gp.checks = append(gp.checks, fmt.Sprintf("replica %d: %s", i, c))
		}
		if i < w.inputs {
			gp.allocs += ms.Mallocs - a0
			gp.bytes += ms.TotalAlloc - b0
			gp.model = append(gp.model, o.m)
			gp.done[k] = o.m.Completed
			gp.bestNS[k], gp.bestCPU[k] = host, cpu
			if log != nil {
				gp.outs = append(gp.outs, o)
			}
			continue
		}
		if !reflect.DeepEqual(o.m, gp.model[k]) {
			gp.checks = append(gp.checks, fmt.Sprintf("replica %d repeats input %d with different Metrics", i, k))
		}
		gp.bestNS[k] = min(gp.bestNS[k], host)
		gp.bestCPU[k] = min(gp.bestCPU[k], cpu)
	}
	return gp, nil
}

// equivalence runs replica 0 through grid.RunScenario and through the
// decomposed public steps and reports whether the Metrics differ. It
// also serves as the warm-up: caches fill and the task names are
// interned before anything is timed.
func (w *gridWorkload) equivalence(ctx context.Context, seed uint64) ([]string, error) {
	in, err := w.input(seed, 0)
	if err != nil {
		return nil, err
	}
	o, err := w.runReplica(ctx, in, nil, 0)
	if err != nil {
		return nil, err
	}
	want, err := grid.RunScenario(ctx, grid.ScenarioSpec{
		Seed:      in.seed,
		Config:    w.config(obs.NewCSV(&countingWriter{})),
		Grid:      w.grid,
		Workload:  w.work,
		Toolchain: w.tc,
		Faults:    w.faults,
	})
	if err != nil {
		return nil, err
	}
	if !reflect.DeepEqual(o.m, want) {
		return []string{"replica 0: decomposed steps and grid.RunScenario give different Metrics"}, nil
	}
	return nil, nil
}

// runGrid is one benchmark run of a grid workload.
func runGrid(ctx context.Context, w *gridWorkload, opt options) (*result, error) {
	if err := w.init(); err != nil {
		return nil, err
	}
	res := newResult()
	eq, err := w.equivalence(ctx, opt.seed)
	if err != nil {
		return nil, err
	}
	res.fail(eq...)
	budget := int64(opt.seconds * 1e9)
	if !opt.trace {
		gp, err := w.pass(ctx, opt.seed, budget, nil, 0)
		if err != nil {
			return nil, err
		}
		res.account(gp)
		w.endToEnd(res, gp)
		return res, nil
	}

	base, err := w.pass(ctx, opt.seed, budget/2, nil, 0)
	if err != nil {
		return nil, err
	}
	res.account(base)
	log := &spanLog{}
	root := log.open(0, "run "+w.name)
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, err
	}
	traced, err := w.pass(ctx, opt.seed, budget/2, log, root)
	pprof.StopCPUProfile()
	if err != nil {
		return nil, err
	}
	log.end(root)
	res.account(traced)
	for i := range base.model {
		if !reflect.DeepEqual(base.model[i], traced.model[i]) {
			res.fail(fmt.Sprintf("replica %d: traced Metrics differ from untraced", i))
		}
	}
	w.perLayer(res, base, traced, log)
	if err := cpuSplit(res, prof.Bytes()); err != nil {
		return nil, err
	}
	return res, writeSpans(opt, w.name, log)
}

// account folds a pass's operations and checks into the result.
func (r *result) account(gp *gridPass) {
	r.Attempted += int64(gp.submitted)
	r.Failed += int64(gp.lossy)
	r.fail(gp.checks...)
}

// turnarounds pools the model replicas' simulated turnaround samples.
func turnarounds(model []*grid.Metrics) []float64 {
	var xs []float64
	for _, m := range model {
		xs = append(xs, m.Turnaround.Values()...)
	}
	return xs
}

func (w *gridWorkload) endToEnd(r *result, gp *gridPass) {
	done := float64(sum(gp.done))
	tps, cpu := gp.fastest()
	r.set("tasks_per_s", tps, "1/s")
	r.set("cpu_ms_per_task", cpu, "ms")
	r.set("allocs_per_task", float64(gp.allocs)/done, "count")
	r.set("bytes_per_task", float64(gp.bytes)/done, "B")
	r.set("peak_rss_mb", peakRSSMB(), "MB")
	r.set("setup_s", median(gp.setupNS)/1e9, "s")
	ta := turnarounds(gp.model)
	r.set("sim_turnaround_s", mean(ta), "sim_s")
	sorted := sortedCopy(ta)
	for _, p := range []struct {
		name string
		q    float64
	}{{"req_p50_ms", 0.5}, {"req_p90_ms", 0.9}} {
		v, ok := percentile(sorted, p.q)
		if !ok {
			r.fail(fmt.Sprintf("%s: %d samples leave fewer than %d beyond", p.name, len(sorted), minBeyond))
		}
		r.set(p.name, v*1000, "ms")
	}
	r.note("grid: %d replicas cycling %d inputs; %d tasks completed; %d turnaround samples",
		gp.replicas, w.inputs, gp.completed, len(ta))

}

// perLayer derives the per-layer metrics from the traced pass. Counts
// come from the model replicas only, so they repeat exactly for a seed;
// busy shares come from every traced replica.
func (w *gridWorkload) perLayer(r *result, base, traced *gridPass, log *spanLog) {
	var tasks, samples float64
	var q queueLayer
	var st strategyLayer
	var emits, dispatches, csvBytes float64
	var retries, lost, expiries int
	var reconfigS float64
	var reconfigs, reuses, compactions int
	var mttr []float64
	for _, o := range traced.outs {
		m := o.m
		tasks += float64(m.Submitted)
		q.pushes += o.p.q.pushes
		q.events += o.p.q.events
		q.cancel += o.p.q.cancel
		if o.p.q.peakPending > q.peakPending {
			q.peakPending = o.p.q.peakPending
		}
		st.calls += o.p.st.calls
		st.options += o.p.st.options
		st.chosen += o.p.st.chosen
		emits += float64(o.p.sink.emits)
		samples += float64(o.p.sink.samples)
		dispatches += float64(o.p.sink.kinds[obs.KindDispatch])
		csvBytes += float64(o.csvBytes)
		retries += m.Retries
		lost += m.TasksLost
		expiries += m.LeaseExpiries
		reconfigs += m.Reconfigs
		reuses += m.Reuses
		compactions += m.Compactions
		reconfigS += m.ReconfigSeconds
		mttr = append(mttr, m.MTTR.Values()...)
	}
	k := float64(w.inputs)
	attempts := float64(st.chosen)
	r.set("sim.events_per_task", float64(q.events)/tasks, "count")
	r.set("sim.pushes_per_task", float64(q.pushes)/tasks, "count")
	r.set("sim.cancels_per_task", float64(q.cancel)/tasks, "count")
	r.set("sim.peak_pending", float64(q.peakPending), "count")
	r.set("sched.choose_calls_per_task", float64(st.calls)/tasks, "count")
	r.set("sched.options_per_call", float64(st.options)/float64(st.calls), "count")
	r.set("rms.allocate_attempts_per_task", attempts/tasks, "count")
	r.set("rms.allocate_failures_per_task", (attempts-dispatches)/tasks, "count")
	placeRatio := dispatches / attempts
	r.set("rms.place_ratio", placeRatio, "ratio")
	if got := int64(attempts*placeRatio + 0.5); got != int64(dispatches) {
		r.fail(fmt.Sprintf("attempts × place_ratio = %d, dispatch events %d", got, int64(dispatches)))
	}
	r.set("fabric.reconfigs_per_task", float64(reconfigs)/tasks, "count")
	r.set("fabric.reuses_per_task", float64(reuses)/tasks, "count")
	r.set("fabric.compactions_per_task", float64(compactions)/tasks, "count")
	r.set("fabric.reconfig_s", reconfigS/k, "sim_s")
	r.set("faults.retries", float64(retries), "count")
	r.set("faults.tasks_lost", float64(lost), "count")
	r.set("faults.lease_expiries", float64(expiries), "count")
	r.set("faults.mttr_s", mean(mttr), "sim_s")
	r.set("obs.events_per_task", emits/tasks, "count")
	r.set("obs.samples", samples, "count")
	r.set("obs.bytes_per_task", csvBytes/tasks, "B")
	r.set("grid.dispatches_per_task", dispatches/tasks, "count")

	// Host-time split of Engine.Run: each wrapped layer's busy time, and
	// the run span's self time — engine, rms and fabric.
	var runNS, selfNS float64
	busy := map[string]float64{}
	var build, submit []float64
	self := log.selfNS()
	for _, s := range log.spans {
		switch {
		case s.Name == "grid.run":
			runNS += float64(s.Dur)
			selfNS += float64(self[s.ID])
		case s.Name == "grid.build":
			build = append(build, float64(s.Dur))
		case s.Name == "grid.submit":
			submit = append(submit, float64(s.Dur))
		case s.Calls > 0 && log.spans[s.Parent-1].Name == "grid.run":
			busy[s.Name] += float64(s.Dur)
		}
	}
	r.set("sim.busy_share", busy["sim.queue"]/runNS, "ratio")
	r.set("sched.busy_share", busy["sched.choose"]/runNS, "ratio")
	r.set("obs.busy_share", busy["obs.sink"]/runNS, "ratio")
	r.set("grid.self_share", selfNS/runNS, "ratio")

	r.set("grid.build_ms", median(build)/1e6, "ms")
	r.set("grid.submit_ms", median(submit)/1e6, "ms")
	r.traceOverhead(base, traced)
	r.set("trace.spans", float64(len(log.spans)), "count")
	r.note("traced: %d replicas, %d spans; model counts over %d inputs (%.0f tasks)",
		traced.replicas, len(log.spans), w.inputs, tasks)
}

// traceOverhead compares traced and untraced completed tasks per host
// second.
func (r *result) traceOverhead(base, traced *gridPass) {
	b, _ := base.fastest()
	t, _ := traced.fastest()
	r.set("trace.overhead_share", 1-t/b, "ratio")
	r.set("trace.base_tasks_per_s", b, "1/s")
}
