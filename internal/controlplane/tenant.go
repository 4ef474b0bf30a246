package controlplane

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/capability"
	"repro/internal/faults"
	"repro/internal/grid"
	"repro/internal/hdl"
	"repro/internal/jss"
	"repro/internal/node"
	"repro/internal/pe"
	"repro/internal/rms"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/task"
)

// TenantStats is the per-tenant counter snapshot the wire API exposes.
// The conservation invariant the property suite enforces is
//
//	Submitted == Completed + Rejected + Evicted + Canceled + InFlight
//
// at every point in the tenant's life, with InFlight == 0 after a drain.
type TenantStats struct {
	Tenant string `json:"tenant"`
	Tier   string `json:"tier"`
	// Submitted counts every submit request received for the tenant;
	// Accepted the ones past admission (Accepted = Submitted - Rejected).
	Submitted int `json:"submitted"`
	Accepted  int `json:"accepted"`
	// Rejected counts every admission denial (quota, queue bound,
	// invalid task, draining); QuotaDenied is the subset denied by a
	// tier resource limit — admission rate, queue bound, or cost
	// budget — as opposed to malformed or mistimed requests.
	Rejected    int `json:"rejected"`
	QuotaDenied int `json:"quota_denied"`
	// Completed / Evicted / Canceled are terminal outcomes; InFlight is
	// the queued-or-running remainder.
	Completed int `json:"completed"`
	Evicted   int `json:"evicted"`
	Canceled  int `json:"canceled"`
	InFlight  int `json:"in_flight"`
	// Retries counts fault-aborted attempts that were re-queued.
	Retries int `json:"retries"`
	// FaultAborts counts execution attempts the engine aborted for a
	// fault (whether or not the task was later re-queued). RepairedTasks
	// and RepairSeconds are the engine's MTTR record: a task completing
	// after at least one abort contributes the virtual time from its
	// last abort to its completion, so
	// RepairSeconds/RepairedTasks is the tenant's mean time to repair.
	// All three are omitempty: fault-free runs serialize exactly as
	// before these fields existed.
	FaultAborts   int     `json:"fault_aborts,omitempty"`
	RepairedTasks int     `json:"repaired_tasks,omitempty"`
	RepairSeconds float64 `json:"repair_seconds,omitempty"`
	// VirtualSeconds is the tenant engine's virtual clock; CostUnits the
	// accumulated execution cost at the jss cost rates.
	VirtualSeconds float64 `json:"virtual_seconds"`
	CostUnits      float64 `json:"cost_units"`
}

// conserved reports whether the tenant's counters balance.
func (s TenantStats) conserved() bool {
	return s.Submitted == s.Completed+s.Rejected+s.Evicted+s.Canceled+s.InFlight
}

// taskState is a control-plane task's lifecycle state.
type taskState int

const (
	stateQueued taskState = iota
	stateDone
	stateEvicted
	stateCanceled
)

// maxDoneLog bounds the per-tenant completion log: large enough for
// every test workload and any plausible dump window, small enough that
// a tenant completing tasks forever cannot grow server memory.
const maxDoneLog = 4096

var taskStateNames = [...]string{
	stateQueued: "queued", stateDone: "done",
	stateEvicted: "evicted", stateCanceled: "canceled",
}

func (s taskState) String() string {
	if s >= 0 && int(s) < len(taskStateNames) {
		return taskStateNames[s]
	}
	return fmt.Sprintf("taskState(%d)", int(s))
}

// cpTask is one accepted task riding through a tenant engine.
type cpTask struct {
	id    string
	sub   *jss.Submission
	state taskState
}

// tenantEngine is one tenant's deterministic slice of the control plane:
// admission (token bucket, queue bound, cost budget) and bookkeeping in
// front of one grid.Engine that runs the tenant's vFPGA slice — a single
// node named after the tenant, carrying the tier's devices. The engine
// places, leases, retries and accounts faults exactly as it does for
// DReAMSim; the tenant feeds it one admitted task at a time, in
// admission order (grid.Engine.RunNext). Everything is a pure function of
// (tenant seed, op sequence): no wall-clock time and no global
// randomness reach the engine, which is what makes per-tenant results
// independent of the shard count and of cross-tenant interleaving.
//
// A tenantEngine is owned by exactly one shard goroutine; it needs no
// locking.
type tenantEngine struct {
	id     string
	tier   Tier
	policy TierPolicy

	eng *grid.Engine
	// slice is the engine's one node, kept for the dump: a crashed node
	// leaves the registry until it recovers.
	slice *node.Node

	queue []*cpTask
	tasks map[string]*cpTask
	// doneLog records completed task IDs in completion order — the
	// differential suite compares these sets across shard counts. Capped
	// at maxDoneLog (oldest dropped): a long-running server must not
	// grow memory with every task a tenant ever completed.
	doneLog []string

	// cfg is the server configuration (cost budget, sink, sampling).
	cfg        *Config
	bucket     tokenBucket
	quotedCost float64

	stats TenantStats
	// sinceSample counts completions since the last gauge sample.
	sinceSample int
}

// The per-scenario requirement sets, shared read-only by every task.
var (
	softwareReq = task.GPPOnly(1000, 256)
	softcoreReq = capability.Requirements{}.Min(capability.ParamSoftIssueWidth, 2)
	userHWReq   = task.FPGAFamily("Virtex-5", 1)
)

// newTenantEngine builds a tenant's slice for its tier. The clock
// argument seeds the admission bucket's refill timeline.
func newTenantEngine(id string, tier Tier, seed uint64, cfg *Config, nowNanos int64) (*tenantEngine, error) {
	policy := tier.Policy()
	if cfg.NowNanos == nil {
		// Without an admission clock the bucket could never refill, so
		// rate limiting is off entirely; queue bounds still apply.
		policy.RatePerSec = 0
	}
	if cfg.MaxQueueOverride > 0 {
		policy.MaxQueue = cfg.MaxQueueOverride
	}
	if cfg.RateOverride > 0 {
		policy.RatePerSec = cfg.RateOverride
	}
	if cfg.BurstOverride > 0 {
		policy.Burst = cfg.BurstOverride
	}

	n, err := node.New(id)
	if err != nil {
		return nil, err
	}
	if _, err := n.AddGPP(capability.GPPCaps{
		CPUType: "Intel Xeon E5540", MIPS: 42000, OS: "Linux",
		RAMMB: 16384, Cores: policy.GPPCores,
	}); err != nil {
		return nil, err
	}
	for _, dev := range policy.RPEDevices {
		if _, err := n.AddRPE(dev); err != nil {
			return nil, err
		}
	}
	reg := rms.NewRegistry()
	if err := reg.AddNode(n); err != nil {
		return nil, err
	}
	tc, err := grid.DefaultToolchain()
	if err != nil {
		return nil, err
	}
	mm, err := rms.NewMatchmaker(reg, tc)
	if err != nil {
		return nil, err
	}
	gcfg := grid.Config{
		Strategy: sched.FirstFit{},
		// The slice sits next to the RMS: no latency and unbounded
		// bandwidth, so no transfer is ever charged.
		LinkMBps: math.Inf(1),
		Tracer:   cfg.Sink,
		// Tenant simulators are small (a handful of pending events);
		// the binary heap beats the timing wheel's fixed footprint at
		// thousands-of-tenants scale.
		Scheduler: newHeapScheduler,
	}
	var events []faults.Event
	if cfg.Faults.Enabled() {
		f := cfg.Faults
		f.Retry = policy.Retry
		gcfg.Faults = &f
		if events, err = faults.Schedule(sim.NewRNG(seed).Split(faults.ScheduleStream), f, []string{id}); err != nil {
			return nil, err
		}
	}
	eng, err := grid.NewEngine(gcfg, reg, mm)
	if err != nil {
		return nil, err
	}
	eng.InjectFaults(events)

	return &tenantEngine{
		id:     id,
		tier:   tier,
		policy: policy,
		eng:    eng,
		slice:  n,
		tasks:  make(map[string]*cpTask),
		bucket: newTokenBucket(policy.RatePerSec, policy.Burst, nowNanos),
		cfg:    cfg,
		stats:  TenantStats{Tenant: id, Tier: tier.String()},
	}, nil
}

func newHeapScheduler() sim.Scheduler { return sim.NewHeapQueue() }

// buildTask turns a validated wire TaskSpec into the paper's task tuple.
func buildTask(spec *TaskSpec) (*task.Task, error) {
	t := &task.Task{
		ID: spec.ID,
		Work: pe.Work{
			MInstructions:    spec.WorkMI,
			ParallelFraction: spec.Parallel,
			DataMB:           spec.DataMB,
		},
		EstimatedSeconds: spec.WorkMI / 1000,
	}
	if spec.DataMB > 0 {
		t.Inputs = []task.DataIn{{DataID: "in", SizeMB: spec.DataMB}}
		t.Outputs = []task.DataOut{{DataID: "out", SizeMB: spec.DataMB / 4}}
	}
	switch spec.Scenario {
	case "", "software":
		t.ExecReq = task.ExecReq{Scenario: pe.SoftwareOnly, Requirements: softwareReq}
	case "softcore":
		t.ExecReq = task.ExecReq{Scenario: pe.PredeterminedHW, SoftcoreISA: "rvex-vliw", Requirements: softcoreReq}
	case "userhw":
		d, err := hdl.LookupIP(spec.Design)
		if err != nil {
			return nil, errWire(CodeInvalidTask, "task %q: %v", spec.ID, err)
		}
		t.ExecReq = task.ExecReq{Scenario: pe.UserDefinedHW, Requirements: userHWReq, Design: d}
		t.Work.HWSpeedup = d.AccelFactor
	default:
		return nil, errWire(CodeInvalidTask, "task %q: unknown scenario %q", spec.ID, spec.Scenario)
	}
	return t, nil
}

// submit runs admission for one task: token-bucket quota, queue bound,
// task construction, and the jss validation/cost gate. On success the
// task is queued; every failure path is a counted rejection.
func (te *tenantEngine) submit(spec *TaskSpec, nowNanos int64, draining bool) Response {
	te.stats.Submitted++
	fail := func(err error) Response {
		te.stats.Rejected++
		return errorResponse(OpSubmit, err)
	}
	if draining {
		return fail(errWire(CodeDraining, "server is draining; submissions are closed"))
	}
	if _, dup := te.tasks[spec.ID]; dup {
		return fail(errWire(CodeInvalidTask, "task %q already exists", spec.ID))
	}
	if len(te.queue) >= te.policy.MaxQueue {
		te.stats.QuotaDenied++
		return fail(errWire(CodeQueueFull, "queue full (%d tasks, tier %s bound %d)", len(te.queue), te.tier, te.policy.MaxQueue))
	}
	if !te.bucket.take(nowNanos) {
		te.stats.QuotaDenied++
		return fail(errWire(CodeQuotaExceeded, "tenant %q is over its %s-tier admission rate", te.id, te.tier))
	}
	t, err := buildTask(spec)
	if err != nil {
		return fail(err)
	}
	g := task.NewGraph()
	if err := g.Add(t); err != nil {
		// %q because the graph error embeds the tenant-chosen task ID.
		return fail(errWire(CodeInvalidTask, "task %q: %q", spec.ID, err))
	}
	var qos jss.QoS
	if budget := te.cfg.CostBudgetUnits; budget > 0 {
		remaining := budget - te.stats.CostUnits - te.quotedCost
		if remaining <= 0 {
			// The budget is spent (or fully quoted away): reject here
			// rather than via the jss gate, whose MaxCostUnits <= 0
			// means "uncapped" and would admit everything.
			te.stats.QuotaDenied++
			return fail(errWire(CodeQuotaExceeded, "tenant %q exhausted its cost budget %.2f", te.id, budget))
		}
		qos.MaxCostUnits = remaining
	}
	sub, err := te.eng.J.Submit(te.id, g, nil, qos, te.eng.S.Now())
	if err != nil {
		if ErrorCode(err) == CodeQuotaExceeded {
			te.stats.QuotaDenied++
		}
		return fail(err)
	}
	te.quotedCost += sub.QuotedCost

	ct := &cpTask{id: spec.ID, sub: sub, state: stateQueued}
	te.queue = append(te.queue, ct)
	te.tasks[spec.ID] = ct
	te.stats.Accepted++
	te.stats.InFlight++
	return Response{OK: true, Op: OpSubmit, Tenant: te.id, TaskID: spec.ID, State: ct.state.String()}
}

// cancel removes a queued task. Terminal tasks report their state with
// OK=false and code unknown_task is reserved for IDs never seen.
func (te *tenantEngine) cancel(taskID string) Response {
	ct, ok := te.tasks[taskID]
	if !ok {
		return errorResponse(OpCancel, errWire(CodeUnknownTask, "tenant %q has no task %q", te.id, taskID))
	}
	if ct.state != stateQueued {
		resp := errorResponse(OpCancel, errWire(CodeBadRequest, "task %q is already %s", taskID, ct.state))
		resp.State = ct.state.String()
		return resp
	}
	te.queue = slices.DeleteFunc(te.queue, func(q *cpTask) bool { return q == ct })
	ct.state = stateCanceled
	te.eng.J.Fail(ct.sub.ID, te.eng.S.Now(), "canceled by user")
	te.quotedCost -= ct.sub.QuotedCost
	te.stats.Canceled++
	te.stats.InFlight--
	return Response{OK: true, Op: OpCancel, Tenant: te.id, TaskID: taskID, State: ct.state.String()}
}

// status reports a task's lifecycle state.
func (te *tenantEngine) status(taskID string) Response {
	ct, ok := te.tasks[taskID]
	if !ok {
		return errorResponse(OpStatus, errWire(CodeUnknownTask, "tenant %q has no task %q", te.id, taskID))
	}
	return Response{OK: true, Op: OpStatus, Tenant: te.id, TaskID: taskID, State: ct.state.String()}
}

// snapshot returns the tenant's counters, folding in the engine's
// fault record and virtual clock.
func (te *tenantEngine) snapshot() TenantStats {
	s := te.stats
	m := te.eng.Metrics()
	s.Retries = m.Retries
	s.FaultAborts = m.Failures
	s.RepairedTasks = m.MTTR.N()
	s.RepairSeconds = m.MTTR.Sum()
	s.VirtualSeconds = float64(te.eng.S.Now())
	return s
}

// hasWork reports whether the tenant has queued tasks.
func (te *tenantEngine) hasWork() bool { return len(te.queue) > 0 }

// step runs the head-of-queue task to a terminal state in virtual time;
// the caller checks hasWork first.
func (te *tenantEngine) step() {
	ct := te.queue[0]
	te.queue = te.queue[1:]
	// Admission and cancel keep the JSS queue in lockstep with te.queue.
	if te.eng.RunNext() != ct.sub {
		panic("controlplane: tenant submission run out of admission order")
	}
	te.quotedCost -= ct.sub.QuotedCost
	te.stats.InFlight--
	if ct.sub.Status != jss.StatusDone {
		ct.state = stateEvicted
		te.stats.Evicted++
		return
	}
	ct.state = stateDone
	te.stats.CostUnits += ct.sub.FinalCost
	te.stats.Completed++
	te.doneLog = append(te.doneLog, ct.id)
	if len(te.doneLog) > maxDoneLog {
		te.doneLog = te.doneLog[len(te.doneLog)-maxDoneLog:]
	}
	// Every SampleEvery completions, the engine's gauges go to the sink
	// with the queue depth of the tenant's own FIFO. (The engine emits
	// the lifecycle events to the same sink itself.)
	if te.cfg.Sink != nil && te.cfg.SampleEvery > 0 {
		if te.sinceSample++; te.sinceSample >= te.cfg.SampleEvery {
			te.sinceSample = 0
			s := te.eng.Sample()
			s.QueueDepth = len(te.queue)
			te.cfg.Sink.Sample(s)
		}
	}
}
