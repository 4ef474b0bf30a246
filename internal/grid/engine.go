package grid

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strconv"

	"repro/internal/capability"
	"repro/internal/faults"
	"repro/internal/hdl"
	"repro/internal/jss"
	"repro/internal/network"
	"repro/internal/node"
	"repro/internal/obs"
	"repro/internal/pe"
	"repro/internal/rms"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/task"
)

// Config parameterizes one simulation run.
type Config struct {
	// Strategy is the RMS scheduling strategy under test.
	Strategy sched.Strategy
	// Queue orders waiting tasks.
	Queue sched.QueuePolicy
	// LinkMBps and LinkLatencySeconds model the default network link
	// between the JSS and every node: input data and configuration
	// bitstreams both cross it ("the time required to send configuration
	// bitstreams").
	LinkMBps           float64
	LinkLatencySeconds float64
	// Topology, when non-nil, overrides per-node links (heterogeneous
	// connectivity); the default link above still covers unlisted nodes
	// only when Topology is nil.
	Topology *network.Topology
	// Horizon optionally bounds simulated time (0 = run to completion).
	Horizon sim.Time
	// PrewarmSynthesis models a provider that keeps a ready bitstream
	// library for the workload's IP designs (the paper's OpenCores
	// scenario): CAD time is paid offline, not on the task critical path.
	PrewarmSynthesis bool
	// Tracer, when non-nil, receives per-task lifecycle events (and gauge
	// samples when SampleEverySeconds is set). Any obs.TraceSink works:
	// the in-memory Recorder, the streaming CSV/Chrome sinks, a Timeline,
	// or an obs.Multi fan-out. Events are emitted on the simulator
	// goroutine in virtual-time order; the engine never flushes or closes
	// the sink — its creator owns that.
	Tracer TraceSink
	// SampleEverySeconds, when positive, makes the engine snapshot its
	// gauges (queue depth, per-kind utilization, fabric occupancy,
	// outages, energy) into the Tracer's Sample method every interval of
	// virtual time. The sampler rides the event queue and stops when the
	// simulation drains; a final sample lands at end-of-run. Sampling
	// reads engine state but never mutates it, so enabling it cannot
	// change metrics or traces.
	SampleEverySeconds float64
	// Faults carries the active fault policy (retry bounds, lease TTL)
	// for engines driven with InjectFaults; nil disables lease
	// monitoring and gives aborted tasks unlimited immediate retries
	// (the legacy FailElementAt behavior). RunScenario populates it from
	// ScenarioSpec.Faults. The spec is read-only once the engine runs.
	Faults *faults.Spec
	// Scheduler, when non-nil, constructs the simulator's pending-event
	// set (one call per engine, so sweep replicas never share one). Nil
	// uses the sim package default (the timing wheel). Any conforming
	// sim.Scheduler yields bit-identical runs; this is a performance
	// knob and the seam the heap-vs-wheel differential tests swap.
	Scheduler func() sim.Scheduler
}

// DefaultConfig uses the reconfiguration-aware strategy over a gigabit
// link.
func DefaultConfig() Config {
	return Config{
		Strategy:           sched.ReconfigAware{},
		Queue:              sched.FCFS,
		LinkMBps:           125, // 1 Gb/s
		LinkLatencySeconds: 0.002,
		PrewarmSynthesis:   true,
	}
}

// Validate reports impossible configurations.
func (c Config) Validate() error {
	if c.Strategy == nil {
		return fmt.Errorf("grid: config without a strategy")
	}
	if c.LinkMBps <= 0 {
		return fmt.Errorf("grid: non-positive link bandwidth")
	}
	if c.LinkLatencySeconds < 0 {
		return fmt.Errorf("grid: negative link latency")
	}
	if c.SampleEverySeconds < 0 {
		return fmt.Errorf("grid: negative sampling interval")
	}
	return nil
}

// appRun tracks one submission's progress through the engine.
type appRun struct {
	sub *jss.Submission
	// Graph mode: remaining dependency counts per task.
	waiting map[string]int
	// Program mode: dispatch batches and progress.
	batches   []task.Batch
	batchIdx  int
	batchLeft int
}

// item is one runnable task waiting for a processing element.
type item struct {
	run *appRun
	t   *task.Task
	// tid is the task ID interned once at enqueue; every later trace of
	// this task passes the handle instead of re-hashing the string.
	tid obs.Name
	enq sim.Time
	seq int
	// attempts counts fault-induced aborts so far; lastFail stamps the
	// most recent one (the MTTR clock).
	attempts int
	lastFail sim.Time
}

// Engine drives the simulation: submissions arrive, the scheduler places
// tasks on elements via the matchmaker, reconfigurations and transfers are
// charged, and metrics accumulate.
type Engine struct {
	cfg Config
	S   *sim.Simulator
	Reg *rms.Registry
	MM  *rms.Matchmaker
	J   *jss.JSS

	queue []*item
	// queueDirty marks the waiting queue out of policy order. FCFS appends
	// of fresh items (monotone seq) keep the queue sorted, so the common
	// dispatch path skips sorting entirely; SJF appends and retry re-queues
	// (stale seq) mark it dirty and the next orderQueue re-sorts once.
	queueDirty bool
	seq        int
	// optsBuf is the scratch option slice dispatchOne reuses across calls,
	// so candidate evaluation allocates nothing in steady state.
	optsBuf []sched.Option
	m       *Metrics
	// running tracks in-flight executions per element, for failure
	// injection; runningByKind counts them per element kind so the gauge
	// sampler stays O(nodes) instead of walking every execution.
	running       map[*node.Element][]*execution
	runningByKind map[capability.Kind]int
	// lastReal is the virtual time of the last traced (model) event; the
	// end-of-run metrics window clamps to it when sampling is enabled so
	// a trailing sampler tick cannot widen WindowSeconds/Availability.
	lastReal sim.Time
	// Fault-injection state, touched only from simulator handlers: mon
	// is the RMS lease monitor; down maps a crashed node to the fault
	// Seq that downed it, downNode/downSince keep the detached object
	// and the outage start; linkFault holds the active link fault per
	// node; retryPending counts tasks waiting out a retry backoff.
	// nodeNames/elemNames cache the interned obs handle per live object:
	// tracing an event hashes a pointer, not an ID string.
	nodeNames    map[*node.Node]obs.Name
	elemNames    map[*node.Element]obs.Name
	mon          *rms.Monitor
	down         map[string]uint64
	downNode     map[string]*node.Node
	downSince    map[string]sim.Time
	linkFault    map[string]faults.Event
	retryPending int
}

// execution is one in-flight task placement. The event handles are refs,
// not pointers: events are pooled, and a ref that outlives its event (a
// crash cancels the completion, then a lease expiry tries again) degrades
// to a harmless no-op instead of touching a recycled event.
type execution struct {
	it    *item
	lease *rms.Lease
	opt   sched.Option
	// exec is the pure execution time, span the full charged timeline
	// (transfer + synthesis + reconfiguration + execution). Stored here so
	// the completion handler closes over just the execution record instead
	// of a dozen locals — one small closure per dispatch, not ten boxes.
	exec float64
	span float64
	kind capability.Kind
	ev   sim.EventRef
	// renew is the pending lease-renewal check, cancelled when the
	// execution completes or aborts.
	renew sim.EventRef
}

// NewEngine wires a simulator around an existing registry and matchmaker.
func NewEngine(cfg Config, reg *rms.Registry, mm *rms.Matchmaker) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if reg == nil || mm == nil {
		return nil, fmt.Errorf("grid: engine needs a registry and matchmaker")
	}
	// Own the strategy: a stateful strategy shared across engines (sweep
	// replicas) would race, so clone it when it says it can be cloned.
	cfg.Strategy = sched.ForEngine(cfg.Strategy)
	var simOpts []sim.Option
	if cfg.Scheduler != nil {
		simOpts = append(simOpts, sim.WithScheduler(cfg.Scheduler()))
	}
	return &Engine{
		cfg:           cfg,
		S:             sim.NewSimulator(simOpts...),
		Reg:           reg,
		MM:            mm,
		J:             jss.New(),
		m:             newMetrics(cfg.Strategy.Name()),
		running:       make(map[*node.Element][]*execution),
		runningByKind: make(map[capability.Kind]int),
		nodeNames:     make(map[*node.Node]obs.Name),
		elemNames:     make(map[*node.Element]obs.Name),
		mon:           rms.NewMonitor(),
		down:          make(map[string]uint64),
		downNode:      make(map[string]*node.Node),
		downSince:     make(map[string]sim.Time),
		linkFault:     make(map[string]faults.Event),
	}, nil
}

// Submit schedules an application submission at a virtual time. Program
// may be nil to execute by graph dependencies (Fig. 7 mode); otherwise the
// Seq/Par plan drives dispatch (Fig. 8 mode).
func (e *Engine) Submit(at sim.Time, user string, g *task.Graph, prog *task.Program, qos jss.QoS) {
	e.S.Schedule(at, "submit", func() {
		if _, err := e.J.Submit(user, g, prog, qos, e.S.Now()); err != nil {
			return // rejected; the JSS records the reason
		}
		// Each submit event admits one submission; Dequeue honours
		// priority if several were queued at the same instant.
		run := &appRun{sub: e.J.Dequeue()}
		e.start(run)
	})
}

// SubmitWorkload schedules a many-task workload: each generated task is an
// independent single-task submission at its arrival time (DReAMSim's
// independent-task model).
func (e *Engine) SubmitWorkload(gen []Generated, user string) error {
	if e.cfg.PrewarmSynthesis {
		if err := e.prewarm(gen); err != nil {
			return err
		}
	}
	for _, g := range gen {
		tg := task.NewGraph()
		if err := tg.Add(g.Task); err != nil {
			return err
		}
		e.Submit(g.Arrival, user, tg, nil, jss.QoS{})
	}
	return nil
}

// prewarm fills the provider's bitstream library for every design the
// workload references, on every distinct RPE device in the grid.
func (e *Engine) prewarm(gen []Generated) error {
	designs := map[string]*hdl.Design{}
	for _, g := range gen {
		if d := g.Task.ExecReq.Design; d != nil {
			designs[d.Name] = d
		}
	}
	if len(designs) == 0 {
		return nil
	}
	seenDev := map[string]bool{}
	for _, n := range e.Reg.Nodes() {
		for _, el := range n.RPEs() {
			dev := el.Fabric.Device()
			if seenDev[dev.FPGACaps.Device] {
				continue
			}
			seenDev[dev.FPGACaps.Device] = true
			for _, d := range designs {
				// Skip incompatible pairs; the matchmaker will simply not
				// offer them.
				if err := e.MM.PrewarmSynthesis(d, dev); err != nil {
					continue
				}
			}
		}
	}
	return nil
}

// linkTo returns the network link for a node, with any active link
// fault applied: a degraded link divides bandwidth and multiplies
// latency by the fault's factor. (A partitioned node is excluded from
// matchmaking entirely rather than slowed.)
func (e *Engine) linkTo(nodeID string) network.Link {
	l := network.Link{BandwidthMBps: e.cfg.LinkMBps, LatencySeconds: e.cfg.LinkLatencySeconds}
	if e.cfg.Topology != nil {
		l = e.cfg.Topology.LinkTo(nodeID)
	}
	if f, ok := e.linkFault[nodeID]; ok && !f.Partition && f.Factor > 1 {
		l.BandwidthMBps /= f.Factor
		l.LatencySeconds *= f.Factor
	}
	return l
}

// unreachable reports whether a node cannot be talked to: crashed, or
// cut off by a network partition. Matchmaking skips unreachable nodes
// (degraded-mode scheduling: strategies see a shrunken option set) and
// lease renewals against them fail.
func (e *Engine) unreachable(nodeID string) bool {
	if _, down := e.down[nodeID]; down {
		return true
	}
	f, ok := e.linkFault[nodeID]
	return ok && f.Partition
}

// AttachNodeAt adds a node to the grid at a virtual time — resources
// joining at runtime, per the framework's adaptivity claim. Queued tasks
// are re-examined immediately: work that was unschedulable may now run.
func (e *Engine) AttachNodeAt(at sim.Time, n *node.Node) {
	e.S.Schedule(at, "attach "+n.ID, func() {
		if err := e.Reg.AddNode(n); err != nil {
			return // duplicate ID; the registry refused
		}
		e.tryDispatch()
	})
}

// DetachNodeAt removes a node at a virtual time. A node busy with running
// tasks cannot leave; the detach retries after each second of virtual time
// until the node drains (bounded, so a saturated grid cannot loop forever).
func (e *Engine) DetachNodeAt(at sim.Time, id string) {
	const maxRetries = 100000
	retries := 0
	var attempt func()
	attempt = func() {
		if err := e.Reg.RemoveNode(id); err == nil {
			return
		}
		retries++
		if retries < maxRetries {
			e.S.After(1, "detach-retry "+id, attempt)
		}
	}
	e.S.Schedule(at, "detach "+id, attempt)
}

// start initializes a run and enqueues its initially ready tasks.
func (e *Engine) start(run *appRun) {
	if run.sub.Program != nil {
		run.batches = run.sub.Program.Plan()
		e.startBatch(run)
		return
	}
	// waiting only tracks tasks still blocked on dependencies; the
	// map stays nil for dependency-free graphs (the whole many-task
	// workload model), and advance only ever looks up dependents,
	// which by definition were blocked.
	for _, id := range run.sub.Graph.Order() {
		deps := 0
		for _, dep := range run.sub.Graph.Dependencies(id) {
			if _, ok := run.sub.Graph.Get(dep); ok {
				deps++
			}
		}
		if deps == 0 {
			e.enqueue(run, id)
			continue
		}
		if run.waiting == nil {
			run.waiting = make(map[string]int)
		}
		run.waiting[id] = deps
	}
}

func (e *Engine) startBatch(run *appRun) {
	if run.batchIdx >= len(run.batches) {
		return
	}
	batch := run.batches[run.batchIdx]
	run.batchLeft = len(batch)
	for _, id := range batch {
		e.enqueue(run, id)
	}
}

func (e *Engine) enqueue(run *appRun, taskID string) {
	t, ok := run.sub.Graph.Get(taskID)
	if !ok {
		return
	}
	e.seq++
	e.m.Submitted++
	it := &item{run: run, t: t, enq: e.S.Now(), seq: e.seq}
	if e.cfg.Tracer != nil {
		// Interning takes a process-wide lock and never frees the entry.
		it.tid = obs.Str(taskID)
	}
	e.pushQueue(it, true)
	e.J.NotifyFor(run.sub, e.S.Now(), taskID, "queued")
	e.trace(obs.Event{Time: e.S.Now(), Kind: obs.KindQueued, TaskID: it.tid})
	e.tryDispatch()
}

// pushQueue appends a waiting item. fresh means the item carries the
// current maximal seq (a first enqueue, not a retry), in which case an
// FCFS queue stays sorted and no dirty mark is needed.
func (e *Engine) pushQueue(it *item, fresh bool) {
	if e.cfg.Queue == sched.SJF || !fresh {
		e.queueDirty = true
	}
	e.queue = append(e.queue, it)
}

// orderQueue sorts the waiting items per the queue policy, if anything
// disturbed the order since the last sort.
func (e *Engine) orderQueue() {
	if !e.queueDirty {
		return
	}
	e.queueDirty = false
	switch e.cfg.Queue {
	case sched.SJF:
		slices.SortStableFunc(e.queue, func(a, b *item) int {
			switch {
			case a.t.EstimatedSeconds < b.t.EstimatedSeconds:
				return -1
			case a.t.EstimatedSeconds > b.t.EstimatedSeconds:
				return 1
			case a.seq < b.seq:
				return -1
			case a.seq > b.seq:
				return 1
			}
			return 0
		})
	default: // FCFS
		slices.SortStableFunc(e.queue, func(a, b *item) int {
			switch {
			case a.seq < b.seq:
				return -1
			case a.seq > b.seq:
				return 1
			}
			return 0
		})
	}
}

// tryDispatch greedily places queued tasks until no further placement
// succeeds (FCFS order with backfill: a blocked head does not stall
// runnable tasks behind it).
//
//reconlint:hotpath runs once per dispatchable event across the whole simulation
func (e *Engine) tryDispatch() {
	for {
		e.orderQueue()
		dispatched := false
		for i := 0; i < len(e.queue); i++ {
			it := e.queue[i]
			if e.dispatchOne(it) {
				e.queue = append(e.queue[:i], e.queue[i+1:]...)
				dispatched = true
				break
			}
		}
		if !dispatched {
			return
		}
	}
}

// dispatchOne attempts to place one task; true on success.
func (e *Engine) dispatchOne(it *item) bool {
	req := it.t.ExecReq
	cands, err := e.MM.Candidates(req)
	if err != nil || len(cands) == 0 {
		return false
	}
	opts := e.optsBuf[:0]
	for _, c := range cands {
		if e.unreachable(c.Node.ID) {
			continue
		}
		est, err := e.MM.Estimate(c, req, it.t.Work)
		if err != nil {
			continue
		}
		transfer := e.linkTo(c.Node.ID).TransferSeconds(it.t.InputMB() + est.BitstreamMB)
		opts = append(opts, sched.Option{
			Cand:             c,
			ExecSeconds:      est.ExecSeconds,
			ReconfigSeconds:  float64(est.ReconfigDelay),
			TransferSeconds:  transfer,
			SynthesisSeconds: est.SynthesisSeconds,
		})
	}
	placed := false
	for len(opts) > 0 {
		idx := e.cfg.Strategy.Choose(opts)
		if idx < 0 {
			break
		}
		opt := opts[idx]
		lease, err := e.MM.Allocate(opt.Cand, req)
		if err != nil {
			// Element became unusable (area busy); drop the option.
			opts = append(opts[:idx], opts[idx+1:]...)
			continue
		}
		e.execute(it, opt, lease)
		placed = true
		break
	}
	// Keep the grown backing array for the next call; Option values are
	// copied out before execute, so nothing aliases the buffer.
	e.optsBuf = opts[:0]
	return placed
}

// execute charges the placement's timeline and schedules completion.
func (e *Engine) execute(it *item, opt sched.Option, lease *rms.Lease) {
	now := e.S.Now()
	wait := float64(now - it.enq)
	e.m.Wait.Observe(wait)

	exec, err := lease.Estimator.EstimateSeconds(it.t.Work)
	if err != nil {
		// Work validated at submission; a failure here is a model bug.
		panic(fmt.Sprintf("grid: estimator failed post-allocation: %v", err))
	}
	// Transfer: input data always crosses the node's link; the
	// configuration bitstream only when this lease actually reconfigured.
	transfer := e.linkTo(opt.Cand.Node.ID).TransferSeconds(it.t.InputMB() + lease.BitstreamMB)
	span := transfer + lease.SynthesisSeconds + float64(lease.ReconfigDelay+lease.CompactionDelay) + exec

	if lease.ReconfigDelay > 0 {
		e.m.Reconfigs++
		e.m.ReconfigSeconds += float64(lease.ReconfigDelay)
		e.m.BitstreamMB += lease.BitstreamMB
	} else if opt.Cand.Elem.Fabric != nil {
		e.m.Reuses++
	}
	if lease.CompactionMoves > 0 {
		e.m.Compactions += lease.CompactionMoves
		e.m.CompactionSeconds += float64(lease.CompactionDelay)
	}
	if opt.Cand.Fallback {
		e.m.Fallbacks++
	}
	e.m.SynthesisSeconds += lease.SynthesisSeconds

	run := it.run
	if run.sub.QoS.Monitor {
		// Gate before NotifyFor: the label string is only built when the
		// user actually subscribed to progress events.
		//reconlint:allow hotalloc gated behind QoS.Monitor; rendered only for monitored submissions
		e.J.NotifyFor(run.sub, now, it.t.ID, "dispatched to "+opt.Cand.Label())
	}

	exe := &execution{
		it: it, lease: lease, opt: opt,
		exec: exec, span: span, kind: lease.Estimator.Kind(),
	}
	elem := opt.Cand.Elem
	e.running[elem] = append(e.running[elem], exe)
	e.runningByKind[elem.Kind]++
	e.trace(obs.Event{
		Time: now, Kind: obs.KindDispatch, TaskID: it.tid,
		Node: e.nodeName(opt.Cand.Node), Element: e.elemName(elem),
	})
	if lease.ReconfigDelay > 0 {
		e.trace(obs.Event{
			Time: now, Kind: obs.KindReconfig, TaskID: it.tid,
			Node: e.nodeName(opt.Cand.Node), Element: e.elemName(elem),
		})
	}
	e.superviseLease(exe)
	exe.ev = e.S.After(sim.Time(span), "complete", func() { e.complete(exe) })
}

// complete is the completion handler for one execution: settle the lease,
// fold the timeline into the metrics, report to the JSS, and unlock
// whatever the finished task was blocking.
func (e *Engine) complete(exe *execution) {
	it, lease, run := exe.it, exe.lease, exe.it.run
	elem := exe.opt.Cand.Elem
	end := e.S.Now()
	e.S.Cancel(exe.renew)
	e.mon.Settle(lease)
	e.dropRunning(elem, exe)
	if err := lease.Release(); err != nil {
		panic(fmt.Sprintf("grid: release failed: %v", err))
	}
	e.m.Completed++
	e.m.Exec.Observe(exe.exec)
	e.m.Turnaround.Observe(float64(end - it.enq))
	if it.attempts > 0 {
		e.m.MTTR.Observe(float64(end - it.lastFail))
	}
	e.m.busySeconds[elem.Kind] += exe.span
	e.m.Energy.ChargeActive(elem.Kind, exe.span)
	if end > e.m.Makespan {
		e.m.Makespan = end
	}
	e.J.ChargeFor(run.sub, exe.exec, exe.kind)
	e.J.NotifyFor(run.sub, end, it.t.ID, "completed")
	e.trace(obs.Event{
		Time: end, Kind: obs.KindComplete, TaskID: it.tid,
		Node: e.nodeName(exe.opt.Cand.Node), Element: e.elemName(elem),
	})
	e.J.TaskDoneFor(run.sub, end)
	e.advance(run, it.t.ID)
	e.tryDispatch()
}

// advance unlocks the tasks enabled by a completion.
func (e *Engine) advance(run *appRun, doneID string) {
	if run.sub.Program != nil {
		run.batchLeft--
		if run.batchLeft == 0 {
			run.batchIdx++
			e.startBatch(run)
		}
		return
	}
	for _, dep := range run.sub.Graph.Dependents(doneID) {
		run.waiting[dep]--
		if run.waiting[dep] == 0 {
			e.enqueue(run, dep)
		}
	}
}

// dropRunning removes one execution record from an element's list.
func (e *Engine) dropRunning(elem *node.Element, exe *execution) {
	list := e.running[elem]
	for i, cur := range list {
		if cur == exe {
			e.running[elem] = append(list[:i], list[i+1:]...)
			e.runningByKind[elem.Kind]--
			break
		}
	}
	// Keep the empty entry: every reader checks len, and retaining the
	// backing array means the next dispatch to this element appends
	// without reallocating.
}

// trace forwards one event to the configured sink, if any.
func (e *Engine) trace(ev obs.Event) {
	if ev.Time > e.lastReal {
		e.lastReal = ev.Time
	}
	if e.cfg.Tracer != nil {
		e.cfg.Tracer.Emit(ev)
	}
}

// nodeName returns the node's interned trace handle, caching per object.
func (e *Engine) nodeName(n *node.Node) obs.Name {
	if nm, ok := e.nodeNames[n]; ok {
		return nm
	}
	nm := obs.Str(n.ID)
	e.nodeNames[n] = nm
	return nm
}

// elemName returns the element's interned trace handle, caching per object.
func (e *Engine) elemName(el *node.Element) obs.Name {
	if nm, ok := e.elemNames[el]; ok {
		return nm
	}
	nm := obs.Str(el.ID)
	e.elemNames[el] = nm
	return nm
}

// samplingEnabled reports whether the periodic gauge sampler runs.
func (e *Engine) samplingEnabled() bool {
	return e.cfg.Tracer != nil && e.cfg.SampleEverySeconds > 0
}

// startSampler schedules the recurring gauge snapshot: one sample now,
// then one every SampleEverySeconds while other events remain — the
// sampler never keeps the simulation alive on its own, so the event loop
// still drains.
func (e *Engine) startSampler() {
	dt := sim.Time(e.cfg.SampleEverySeconds)
	var tick func()
	tick = func() {
		e.emitSample()
		if e.S.Pending() > 0 {
			e.S.After(dt, "obs-sample", tick)
		}
	}
	e.S.Schedule(e.S.Now(), "obs-sample", tick)
}

// emitSample sends one gauge snapshot to the tracer.
func (e *Engine) emitSample() { e.cfg.Tracer.Sample(e.Sample()) }

// Sample snapshots the engine's gauges. It walks the registry in
// registration order (deterministic) and reads only — sampling cannot
// perturb the run.
func (e *Engine) Sample() obs.Sample {
	s := obs.Sample{
		Time:         e.S.Now(),
		QueueDepth:   len(e.queue),
		RetryBacklog: e.retryPending,
		NodesDown:    len(e.down),
		Completed:    e.m.Completed,
		EnergyJoules: e.m.Energy.TotalJoules(),
	}
	var unitsGPP, unitsFPGA, unitsGPU int
	for _, n := range e.Reg.Nodes() {
		for _, el := range n.Elements() {
			switch el.Kind {
			case capability.KindGPP:
				u := 1
				if el.GPP != nil {
					u = el.GPP.Caps.Cores
				}
				unitsGPP += u
			case capability.KindFPGA:
				unitsFPGA++
				if el.Fabric != nil {
					st := el.Fabric.State()
					s.FabricSlicesTotal += st.TotalSlices
					s.FabricSlicesUsed += st.TotalSlices - st.AvailableSlices
					s.FabricRegions += len(st.Configurations)
				}
			case capability.KindGPU:
				unitsGPU++
			}
		}
	}
	s.RunningGPP = e.runningByKind[capability.KindGPP]
	s.RunningFPGA = e.runningByKind[capability.KindFPGA]
	s.RunningGPU = e.runningByKind[capability.KindGPU]
	s.Running = s.RunningGPP + s.RunningFPGA + s.RunningGPU
	s.UtilGPP = unitRatio(s.RunningGPP, unitsGPP)
	s.UtilFPGA = unitRatio(s.RunningFPGA, unitsFPGA)
	s.UtilGPU = unitRatio(s.RunningGPU, unitsGPU)
	return s
}

// unitRatio divides occupancy by capacity, 0 when capacity is absent.
func unitRatio(busy, units int) float64 {
	if units <= 0 {
		return 0
	}
	return float64(busy) / float64(units)
}

// FailElementAt injects an element failure at a virtual time: every task
// running on the element is aborted and routed through the retry policy
// (its original enqueue time is kept, so the lost work shows up in
// waiting/turnaround). With permanent set, the element is also removed
// from its node, modelling hardware loss rather than a transient fault.
func (e *Engine) FailElementAt(at sim.Time, nodeID, elemID string, permanent bool) {
	e.S.Schedule(at, "fail "+nodeID+"/"+elemID, func() {
		n, ok := e.Reg.Node(nodeID)
		if !ok {
			return
		}
		elem, ok := n.Element(elemID)
		if !ok {
			return
		}
		for _, exe := range append([]*execution(nil), e.running[elem]...) {
			e.failExecution(exe, nodeID, elemID)
		}
		if permanent {
			_ = n.Remove(elemID)
		}
		e.tryDispatch()
	})
}

// abortExecution tears one in-flight execution down: its completion and
// renewal events are cancelled, the lease released, and the region it
// configured evicted — a failed or power-cycled fabric cannot be trusted
// to hold a valid configuration, so no stale reuse happens.
func (e *Engine) abortExecution(exe *execution) {
	e.S.Cancel(exe.ev)
	e.S.Cancel(exe.renew)
	e.mon.Settle(exe.lease)
	elem := exe.lease.Cand.Elem
	e.dropRunning(elem, exe)
	if err := exe.lease.Release(); err != nil {
		panic(fmt.Sprintf("grid: failure release: %v", err))
	}
	if exe.lease.Region != nil && elem.Fabric != nil {
		_ = elem.Fabric.Evict(exe.lease.Region)
	}
	exe.it.lastFail = e.S.Now()
}

// failExecution aborts one in-flight execution and routes its task
// through the retry policy.
func (e *Engine) failExecution(exe *execution, nodeID, elemID string) {
	e.abortExecution(exe)
	e.m.Failures++
	if exe.it.run.sub.QoS.Monitor {
		//reconlint:allow hotalloc gated behind QoS.Monitor on a failure path; cold by construction
		e.J.NotifyFor(exe.it.run.sub, e.S.Now(), exe.it.t.ID,
			"failed on "+nodeID+"/"+elemID+", requeued")
	}
	e.trace(obs.Event{
		Time: e.S.Now(), Kind: obs.KindFail, TaskID: exe.it.tid,
		Node: e.nodeName(exe.lease.Cand.Node), Element: e.elemName(exe.lease.Cand.Elem),
	})
	e.requeueOrLose(exe.it)
}

// requeueOrLose routes an aborted task through the retry policy: either
// re-enqueue after capped exponential backoff (re-matchmaking from
// scratch — the previous placement is gone, and the strategy sees
// whatever options remain), or declare the task lost once its retry
// budget is exhausted. Without an active fault policy the task retries
// immediately and without bound, the legacy FailElementAt behavior.
func (e *Engine) requeueOrLose(it *item) {
	it.attempts++
	var pol faults.RetryPolicy
	if e.cfg.Faults != nil {
		pol = e.cfg.Faults.Retry
	}
	if pol.MaxRetries > 0 && it.attempts > pol.MaxRetries {
		e.m.TasksLost++
		e.trace(obs.Event{Time: e.S.Now(), Kind: obs.KindLost, TaskID: it.tid})
		//reconlint:allow hotalloc terminal path: rendered once per task lost, never per event
		e.J.Fail(it.run.sub.ID, e.S.Now(), "task "+it.t.ID+" lost after "+strconv.Itoa(it.attempts)+" failed attempts")
		return
	}
	e.m.Retries++
	e.retryPending++
	e.S.After(sim.Time(pol.Delay(it.attempts)), "retry", func() {
		e.retryPending--
		e.pushQueue(it, false)
		e.trace(obs.Event{Time: e.S.Now(), Kind: obs.KindRetry, TaskID: it.tid})
		e.J.NotifyFor(it.run.sub, e.S.Now(), it.t.ID, "requeued for retry")
		e.tryDispatch()
	})
}

// Run executes the simulation to completion (or the horizon) and returns
// the metrics. Tasks still queued at the end are counted unfinished and
// their submissions marked failed.
//
// The context bounds wall-clock time, not virtual time: the event loop
// polls ctx periodically and stops at the first observed cancellation or
// deadline. In that case Run returns the metrics accumulated so far
// TOGETHER with the context's error, so callers (the sweep engine in
// particular) can keep partial results. A nil ctx is treated as
// context.Background().
func (e *Engine) Run(ctx context.Context) (*Metrics, error) {
	e.S.Horizon = e.cfg.Horizon
	if e.samplingEnabled() {
		e.startSampler()
	}
	if err := e.S.RunContext(ctx); err != nil {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			e.finish()
			return e.m, err
		}
		return nil, err
	}
	e.finish()
	return e.m, nil
}

// RunNext starts the next admitted submission (the JSS queue head) at
// the current clock, steps the simulator until it is done or failed, and
// returns it (nil when none is queued). Work that fails to place while
// nothing runs, backs off, is down or is partitioned is failed as
// unschedulable at once rather than waiting on fault events. A caller
// using only RunNext keeps one submission in flight, so virtual time is
// a function of the admission order alone.
func (e *Engine) RunNext() *jss.Submission {
	sub := e.J.Dequeue()
	if sub == nil {
		return nil
	}
	e.start(&appRun{sub: sub})
	for sub.Status == jss.StatusRunning {
		if len(e.queue) > 0 && e.starved() {
			e.m.Unfinished += len(e.queue)
			for _, it := range e.queue {
				e.unschedulable(it, e.S.Now())
			}
			e.queue = e.queue[:0]
			break
		}
		if !e.S.Step() {
			break
		}
	}
	return sub
}

// starved reports whether no pending event can free capacity for queued
// work: none is pending, or nothing runs, backs off, is down or is
// partitioned.
func (e *Engine) starved() bool {
	busy := e.retryPending + len(e.down)
	for _, n := range e.runningByKind {
		busy += n
	}
	for _, f := range e.linkFault {
		if f.Partition {
			busy++
		}
	}
	return busy == 0 || e.S.Pending() == 0
}

// unschedulable fails a queued task's submission.
func (e *Engine) unschedulable(it *item, now sim.Time) {
	e.J.Fail(it.run.sub.ID, now, "task "+it.t.ID+" unschedulable under "+e.cfg.Strategy.Name())
}

// Metrics returns the live metrics record. Run completes it with the
// end-of-run window, capacity and outage accounting; an engine driven
// by RunNext reads it as is.
func (e *Engine) Metrics() *Metrics { return e.m }

// finish folds end-of-run accounting into the metrics: queued tasks
// (plus tasks waiting out a retry backoff or stranded in flight at the
// horizon) become unfinished, their submissions fail, open outages are
// closed, and idle capacity is charged.
func (e *Engine) finish() {
	now := e.S.Now()
	// With sampling on, the clock may have been advanced past the last
	// model event by a trailing sampler tick; the metrics window must
	// not depend on whether an observer was attached.
	if e.samplingEnabled() && e.lastReal > 0 && e.lastReal < now {
		now = e.lastReal
	}
	inflight := 0
	for _, list := range e.running {
		inflight += len(list)
	}
	e.m.Unfinished += len(e.queue) + e.retryPending + inflight
	for _, it := range e.queue {
		e.unschedulable(it, now)
	}
	ids := make([]string, 0, len(e.downSince))
	for id := range e.downSince {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		e.m.DownSeconds += float64(now - e.downSince[id])
	}
	e.m.WindowSeconds = float64(now)
	e.m.Nodes = e.Reg.Len() + len(e.down)
	e.fillCapacity()
	// A final sample closes every timeline series at end-of-run (with
	// idle energy now billed).
	if e.samplingEnabled() {
		e.emitSample()
	}
}

// fillCapacity computes per-kind capacity-seconds over the makespan and
// charges powered-but-idle energy for the unused capacity.
func (e *Engine) fillCapacity() {
	horizon := float64(e.m.Makespan)
	if horizon <= 0 {
		return
	}
	for _, n := range e.Reg.Nodes() {
		for _, el := range n.Elements() {
			units := 1.0
			if el.GPP != nil {
				units = float64(el.GPP.Caps.Cores)
			}
			e.m.capacitySeconds[el.Kind] += units * horizon
		}
	}
	for kind, cap := range e.m.capacitySeconds {
		idle := cap - e.m.busySeconds[kind]
		if idle > 0 {
			e.m.Energy.ChargeIdle(kind, idle)
		}
	}
}

// ScenarioSpec bundles everything one scenario run needs. It replaced the
// positional RunScenario(seed, cfg, gs, ws, tc) signature: each field is
// named at the call site and new knobs no longer break every caller.
type ScenarioSpec struct {
	// Seed drives workload generation; equal seeds give byte-identical
	// workloads and therefore byte-identical metrics.
	Seed uint64
	// Config parameterizes the engine (strategy, queue policy, links …).
	Config Config
	// Grid describes the simulated resources.
	Grid GridSpec
	// Workload describes the synthetic task stream.
	Workload WorkloadSpec
	// Toolchain is the provider's CAD tool; nil models a provider without
	// one (user-defined-hardware tasks simply never match).
	Toolchain *hdl.Toolchain
	// Trace, when non-empty, replays a fixed workload instead of
	// generating one from Seed/Workload.
	Trace []Generated
	// User labels the submissions; defaults to "bench".
	User string
	// Faults, when non-nil and enabled, injects a deterministic fault
	// schedule (node crashes, SEUs, link faults) derived from Seed on an
	// independent RNG split — replaying a seed replays its faults, and
	// sweep replicas derive independent-but-seeded schedules. A zero
	// HorizonSeconds is defaulted from the workload's arrival window.
	Faults *faults.Spec
	// Sinks are extra trace sinks for this run, multiplexed together with
	// Config.Tracer via obs.Multi. The caller keeps ownership: RunScenario
	// neither flushes nor closes them.
	Sinks []obs.TraceSink
}

// RunScenario is the one-call harness used by benchmarks and commands:
// build a grid, generate (or replay) a workload, simulate, return metrics.
// The context cancels the run mid-simulation; see Engine.Run for the
// partial-metrics contract.
func RunScenario(ctx context.Context, spec ScenarioSpec) (*Metrics, error) {
	reg, err := BuildGrid(spec.Grid)
	if err != nil {
		return nil, err
	}
	mm, err := rms.NewMatchmaker(reg, spec.Toolchain)
	if err != nil {
		return nil, err
	}
	gen := spec.Trace
	if len(gen) == 0 {
		gen, err = Generate(sim.NewRNG(spec.Seed), spec.Workload)
		if err != nil {
			return nil, err
		}
	}
	cfg := spec.Config
	if len(spec.Sinks) > 0 {
		all := make([]obs.TraceSink, 0, len(spec.Sinks)+1)
		all = append(all, cfg.Tracer)
		all = append(all, spec.Sinks...)
		cfg.Tracer = obs.Multi(all...)
	}
	if spec.Faults != nil {
		f := *spec.Faults
		if f.Enabled() && f.HorizonSeconds <= 0 {
			f.HorizonSeconds = defaultFaultHorizon(gen)
		}
		if err := f.Validate(); err != nil {
			return nil, err
		}
		cfg.Faults = &f
	}
	eng, err := NewEngine(cfg, reg, mm)
	if err != nil {
		return nil, err
	}
	if cfg.Faults != nil && cfg.Faults.Enabled() {
		ids := make([]string, 0, reg.Len())
		for _, n := range reg.Nodes() {
			ids = append(ids, n.ID)
		}
		evs, err := faults.Schedule(sim.NewRNG(spec.Seed).Split(faults.ScheduleStream), *cfg.Faults, ids)
		if err != nil {
			return nil, err
		}
		eng.InjectFaults(evs)
	}
	user := spec.User
	if user == "" {
		user = "bench"
	}
	if err := eng.SubmitWorkload(gen, user); err != nil {
		return nil, err
	}
	return eng.Run(ctx)
}

// defaultFaultHorizon bounds fault generation when the spec leaves it
// open: faults keep arriving through the whole arrival window plus a
// drain margin.
func defaultFaultHorizon(gen []Generated) float64 {
	var last sim.Time
	for _, g := range gen {
		if g.Arrival > last {
			last = g.Arrival
		}
	}
	return float64(last)*1.5 + 60
}

// DefaultToolchain returns the provider toolchain used by scenario runs.
func DefaultToolchain() (*hdl.Toolchain, error) {
	return hdl.NewToolchain("Xilinx ISE 13", "Virtex-4", "Virtex-5", "Virtex-6")
}

// ToSoftwareOnly rewrites every generated task to the software-only
// scenario with modest GPP demands — the GPP-baseline transformation for
// the hybrid-vs-GPP experiment: the same computational work, no
// accelerator option.
func ToSoftwareOnly(gen []Generated) []Generated {
	out := make([]Generated, len(gen))
	for i, g := range gen {
		t := *g.Task
		t.ExecReq = task.ExecReq{
			Scenario:     pe.SoftwareOnly,
			Requirements: task.GPPOnly(1000, 256),
		}
		t.Work.HWSpeedup = 0
		out[i] = Generated{Task: &t, Arrival: g.Arrival}
	}
	return out
}
