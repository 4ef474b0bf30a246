package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"reflect"
	"runtime"
	"runtime/pprof"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/controlplane"
	"repro/internal/sim"
)

// rmsd-mixed serves the control plane over a unix socket the way
// cmd/rmsd does (wall-clock admission, one shard per CPU) and drives it
// from the same process with a closed loop: one connection per CPU,
// each owning its tenants and waiting for every reply. A run is a series
// of rounds replaying one round's inputs, drawn from the seed: each
// round starts a fresh server, sends every tenant's batch with status
// reads between the submits, then drains and reads the stats, which
// must equal the first round's.
const (
	rmsdTenants = 60 // 20 per tier
	// rmsdTasks per tenant and round stays far below every tier's burst
	// (4096 or more) and queue bound, so admission never rejects.
	rmsdTasks = 600
	// statusEvery submits of a tenant are followed by one status read.
	statusEvery = 4
)

var tierNames = []string{"full", "virtualized", "background"}
var scenarioNames = []string{"software", "softcore", "userhw"}

// wireReq is one request and the exact line sent for it.
type wireReq struct {
	req  controlplane.Request
	line []byte
}

// rmsdRound is one round's inputs: the server seed and each
// connection's request sequence.
type rmsdRound struct {
	seed  uint64
	conns [][]wireReq
}

// rmsdInputs draws a round's task batches. Each tenant's tasks come from
// its own stream, so they do not depend on the connection count; tenant
// t belongs to connection t mod conns, and a connection interleaves its
// tenants' submits.
func rmsdInputs(runSeed uint64, round, conns, tasks int) (rmsdRound, error) {
	seed := sim.NewRNG(runSeed).SplitSeed(uint64(round))
	sizes := sim.Pareto{Xm: 50, Alpha: 1.5}
	in := rmsdRound{seed: seed, conns: make([][]wireReq, conns)}
	specs := make([][]*controlplane.TaskSpec, rmsdTenants)
	for t := range specs {
		rng := sim.NewRNG(seed).Split(uint64(t))
		for i := 0; i < tasks; i++ {
			ts := &controlplane.TaskSpec{
				ID:       fmt.Sprintf("t%02d-%05d", t, i),
				WorkMI:   sizes.Sample(rng),
				Parallel: rng.Float64(),
				Scenario: scenarioNames[rng.Intn(len(scenarioNames))],
			}
			if ts.Scenario == "userhw" {
				ts.Design = "aes128"
			}
			specs[t] = append(specs[t], ts)
		}
	}
	add := func(c int, req controlplane.Request) error {
		line, err := json.Marshal(req)
		if err != nil {
			return err
		}
		in.conns[c] = append(in.conns[c], wireReq{req: req, line: append(line, '\n')})
		return nil
	}
	for i := 0; i < tasks; i++ {
		for t := 0; t < rmsdTenants; t++ {
			c, name := t%conns, fmt.Sprintf("tenant-%02d", t)
			tier := tierNames[t%len(tierNames)]
			if err := add(c, controlplane.Request{Op: controlplane.OpSubmit, Tenant: name, Tier: tier, Task: specs[t][i]}); err != nil {
				return in, err
			}
			if (i+1)%statusEvery == 0 {
				if err := add(c, controlplane.Request{Op: controlplane.OpStatus, Tenant: name, TaskID: specs[t][i].ID}); err != nil {
					return in, err
				}
			}
		}
	}
	return in, nil
}

// serverConfig is cmd/rmsd's configuration: wall-clock admission and
// one shard per CPU.
func serverConfig(seed uint64) controlplane.Config {
	cfg := controlplane.DefaultConfig()
	cfg.Shards = runtime.NumCPU()
	cfg.Seed = seed
	cfg.NowNanos = func() int64 { return time.Now().UnixNano() }
	return cfg
}

// wireClient is one closed-loop connection.
type wireClient struct {
	conn net.Conn
	r    *bufio.Reader
}

func (c *wireClient) roundTrip(line []byte) (controlplane.Response, error) {
	var resp controlplane.Response
	if _, err := c.conn.Write(line); err != nil {
		return resp, err
	}
	b, err := c.r.ReadSlice('\n')
	if err != nil {
		return resp, err
	}
	return resp, json.Unmarshal(b, &resp)
}

// reqTiming is one request's host round trip.
type reqTiming struct {
	op         string
	start, dur int64
}

// roundOut is what one round measured.
type roundOut struct {
	setupNS, hostNS int64
	cpuNS           int64
	allocs, bytes   uint64
	sent, errors    int
	rtts            [][]reqTiming // per connection
	drainNS         int64
	stats           []controlplane.TenantStats
	errNotes        []string
}

var socketSeq int

// runRound serves one round end to end. The timed interval runs from
// the server's construction to the stats reply; shutdown follows it.
// The connections share ctx's deadline, so a stalled server fails the
// round instead of hanging it.
func runRound(ctx context.Context, in rmsdRound, log *spanLog, root int) (out roundOut, err error) {
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	a0, b0 := ms.Mallocs, ms.TotalAlloc
	c0 := cpuNS()
	var round, step int
	if log != nil {
		round = log.open(root, "round")
		step = log.open(round, "rmsd.setup")
	}
	t0 := nowNS()
	srv, err := controlplane.New(serverConfig(in.seed))
	if err != nil {
		return out, err
	}
	// An abstract socket name: nothing is created on the file system.
	socketSeq++
	addr := fmt.Sprintf("@perfbench-%d-%d", os.Getpid(), socketSeq)
	ln, err := net.Listen("unix", addr)
	if err != nil {
		srv.Shutdown()
		return out, err
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	clients := make([]*wireClient, len(in.conns))
	defer func() {
		for _, c := range clients {
			if c != nil {
				_ = c.conn.Close()
			}
		}
		srv.Shutdown()
		if serr := <-served; serr != nil && err == nil {
			err = serr
		}
	}()
	for i := range clients {
		conn, err := net.Dial("unix", addr)
		if err != nil {
			return out, err
		}
		clients[i] = &wireClient{conn: conn, r: bufio.NewReaderSize(conn, 1<<20)}
		if dl, ok := ctx.Deadline(); ok {
			if err := conn.SetDeadline(dl); err != nil {
				return out, err
			}
		}
	}
	t1 := nowNS()
	if log != nil {
		log.end(step)
	}

	out.rtts = make([][]reqTiming, len(clients))
	errs := make([]error, len(clients))
	bad := make([][]string, len(clients))
	var wg sync.WaitGroup
	for i, c := range clients {
		wg.Add(1)
		go func(i int, c *wireClient) {
			defer wg.Done()
			reqs := in.conns[i]
			rt := make([]reqTiming, 0, len(reqs))
			for _, wr := range reqs {
				s := nowNS()
				resp, err := c.roundTrip(wr.line)
				rt = append(rt, reqTiming{op: wr.req.Op, start: s, dur: nowNS() - s})
				if err != nil {
					errs[i] = err
					break
				}
				if !resp.OK || (wr.req.Task != nil && resp.TaskID != wr.req.Task.ID) {
					bad[i] = append(bad[i], fmt.Sprintf("%s %s: %s %s", wr.req.Op, wr.req.Tenant, resp.Code, resp.Error))
				}
			}
			out.rtts[i] = rt
		}(i, c)
	}
	wg.Wait()
	for i := range clients {
		if errs[i] != nil {
			return out, errs[i]
		}
		out.sent += len(out.rtts[i])
		out.errors += len(bad[i])
		out.errNotes = append(out.errNotes, bad[i]...)
	}
	if log != nil {
		for _, rt := range out.rtts {
			last := rt[len(rt)-1]
			conn := log.add(round, "conn", t1, last.start+last.dur-t1)
			for _, r := range rt {
				log.add(conn, r.op, r.start, r.dur)
			}
		}
	}

	s := nowNS()
	drain, err := clients[0].roundTrip([]byte(`{"op":"drain"}` + "\n"))
	if err != nil {
		return out, err
	}
	out.drainNS = nowNS() - s
	if log != nil {
		log.add(round, "drain", s, out.drainNS)
	}
	s = nowNS()
	stats, err := clients[0].roundTrip([]byte(`{"op":"stats"}` + "\n"))
	if err != nil {
		return out, err
	}
	t2 := nowNS()
	if log != nil {
		log.add(round, "stats", s, t2-s)
		log.end(round)
	}
	out.sent += 2
	out.rtts[0] = append(out.rtts[0], reqTiming{op: "drain", dur: out.drainNS}, reqTiming{op: "stats", dur: t2 - s})
	for _, r := range []controlplane.Response{drain, stats} {
		if !r.OK {
			out.errors++
			out.errNotes = append(out.errNotes, fmt.Sprintf("%s: %s %s", r.Op, r.Code, r.Error))
		}
	}
	out.stats = stats.Tenants
	out.cpuNS = cpuNS() - c0
	runtime.ReadMemStats(&ms)
	out.allocs, out.bytes = ms.Mallocs-a0, ms.TotalAlloc-b0
	out.setupNS, out.hostNS = t1-t0, t2-t0
	return out, nil
}

// checkStats verifies per-tenant conservation after the drain and
// returns the number of tasks that do not balance, with reasons.
func checkStats(stats []controlplane.TenantStats, tasks int) (int, []string) {
	var lost int
	var bad []string
	if len(stats) != rmsdTenants {
		lost += (rmsdTenants - len(stats)) * tasks
		bad = append(bad, fmt.Sprintf("stats list %d tenants, want %d", len(stats), rmsdTenants))
	}
	for _, s := range stats {
		gap := s.Submitted - (s.Completed + s.Rejected + s.Evicted + s.Canceled + s.InFlight)
		if gap < 0 {
			gap = -gap
		}
		if gap != 0 || s.InFlight != 0 || s.Submitted != tasks || s.Rejected != 0 {
			lost += gap + s.InFlight
			bad = append(bad, fmt.Sprintf("tenant %s: submitted %d completed %d rejected %d evicted %d canceled %d in_flight %d",
				s.Tenant, s.Submitted, s.Completed, s.Rejected, s.Evicted, s.Canceled, s.InFlight))
		}
	}
	return lost, bad
}

// rmsdPass is what one pass over rounds measured. Timings are kept per
// round; the host-time metrics come from the fastest round, set-up and
// drain times are medians.
type rmsdPass struct {
	rounds             int
	completed, evicted int
	allocs, bytes      uint64
	// tps and cpuMS are each round's completed tasks per host second and
	// CPU milliseconds per completed task.
	tps, cpuMS       []float64
	setupNS, drainNS []float64
	// p50, p90 and p99 are each round's request round-trip percentiles
	// in milliseconds, over samples requests per round.
	p50, p90, p99 []float64
	samples       []int
	unsupported   []string
	// opSumMS and opN give the mean round trip per request kind.
	opSumMS map[string]float64
	opN     map[string]int
	model   []controlplane.TenantStats // the first round's
}

func (p *rmsdPass) meanRTT(ops ...string) float64 {
	var sum float64
	var n int
	for _, op := range ops {
		sum += p.opSumMS[op]
		n += p.opN[op]
	}
	return sum / float64(n)
}

func rmsdRun(ctx context.Context, res *result, in rmsdRound, budgetNS int64, log *spanLog, root int) (*rmsdPass, error) {
	p := &rmsdPass{opSumMS: map[string]float64{}, opN: map[string]int{}}
	start := nowNS()
	for r := 0; r == 0 || nowNS()-start < budgetNS; r++ {
		o, err := runRound(ctx, in, log, root)
		if err != nil {
			return nil, fmt.Errorf("round %d: %w", r, err)
		}
		res.Attempted += int64(o.sent)
		res.Failed += int64(o.errors)
		for i, n := range o.errNotes {
			if i == 3 {
				res.note("round %d: %d more error responses", r, len(o.errNotes)-i)
				break
			}
			res.note("round %d: error response %s", r, n)
		}
		if o.errors > 0 {
			res.Correct = false
		}
		lost, bad := checkStats(o.stats, rmsdTasks)
		res.Failed += int64(lost)
		for _, b := range bad {
			res.fail(fmt.Sprintf("round %d: %s", r, b))
		}
		p.rounds++
		done := 0
		for _, s := range o.stats {
			done += s.Completed
			p.evicted += s.Evicted
		}
		p.completed += done
		p.allocs += o.allocs
		p.bytes += o.bytes
		p.tps = append(p.tps, float64(done)/(float64(o.hostNS)/1e9))
		p.cpuMS = append(p.cpuMS, float64(o.cpuNS)/1e6/float64(done))
		p.setupNS = append(p.setupNS, float64(o.setupNS))
		p.drainNS = append(p.drainNS, float64(o.drainNS))
		var rtts []float64
		for _, rt := range o.rtts {
			for _, t := range rt {
				ms := float64(t.dur) / 1e6
				rtts = append(rtts, ms)
				p.opSumMS[t.op] += ms
				p.opN[t.op]++
			}
		}
		sort.Float64s(rtts)
		for _, q := range []struct {
			name string
			p    float64
			dst  *[]float64
		}{{"p50", 0.5, &p.p50}, {"p90", 0.9, &p.p90}, {"p99", 0.99, &p.p99}} {
			v, ok := percentile(rtts, q.p)
			if !ok {
				p.unsupported = append(p.unsupported, fmt.Sprintf("round %d %s over %d samples", r, q.name, len(rtts)))
			}
			*q.dst = append(*q.dst, v)
		}
		p.samples = append(p.samples, len(rtts))
		if r == 0 {
			p.model = o.stats
		} else if !reflect.DeepEqual(o.stats, p.model) {
			res.fail(fmt.Sprintf("round %d: tenant stats differ from round 0's", r))
		}
	}
	return p, nil
}

func runRMSD(ctx context.Context, opt options) (*result, error) {
	res := newResult()
	// Warm-up round: code paths, the intern table and the allocator reach
	// steady state before anything is timed.
	warm, err := rmsdInputs(opt.seed^0x9e3779b97f4a7c15, 0, runtime.NumCPU(), rmsdTasks/6)
	if err != nil {
		return nil, err
	}
	if _, err := runRound(ctx, warm, nil, 0); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	in, err := rmsdInputs(opt.seed, 0, runtime.NumCPU(), rmsdTasks)
	if err != nil {
		return nil, err
	}
	budget := int64(opt.seconds * 1e9)
	if !opt.trace {
		p, err := rmsdRun(ctx, res, in, budget, nil, 0)
		if err != nil {
			return nil, err
		}
		rmsdEndToEnd(res, p)
		return res, nil
	}
	base, err := rmsdRun(ctx, res, in, budget/2, nil, 0)
	if err != nil {
		return nil, err
	}
	log := &spanLog{}
	root := log.open(0, "run rmsd-mixed")
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, err
	}
	traced, err := rmsdRun(ctx, res, in, budget/2, log, root)
	pprof.StopCPUProfile()
	if err != nil {
		return nil, err
	}
	log.end(root)
	if !reflect.DeepEqual(base.model, traced.model) {
		res.fail("traced tenant stats differ from untraced")
	}
	if err := rmsdPerLayer(res, in, base, traced); err != nil {
		return nil, err
	}
	if err := cpuSplit(res, prof.Bytes()); err != nil {
		return nil, err
	}
	bt, tt := slices.Max(base.tps), slices.Max(traced.tps)
	res.set("trace.overhead_share", 1-tt/bt, "ratio")
	res.set("trace.base_tasks_per_s", bt, "1/s")
	res.set("trace.spans", float64(len(log.spans)), "count")
	return res, writeSpans(opt, "rmsd-mixed", log)
}

func rmsdEndToEnd(r *result, p *rmsdPass) {
	done := float64(p.completed)
	r.set("tasks_per_s", slices.Max(p.tps), "1/s")
	r.set("cpu_ms_per_task", slices.Min(p.cpuMS), "ms")
	r.set("allocs_per_task", float64(p.allocs)/done, "count")
	r.set("bytes_per_task", float64(p.bytes)/done, "B")
	r.set("peak_rss_mb", peakRSSMB(), "MB")
	r.set("setup_s", median(p.setupNS)/1e9, "s")
	var virt []float64
	for _, s := range p.model {
		virt = append(virt, s.VirtualSeconds)
	}
	r.set("sim_turnaround_s", mean(virt), "sim_s")
	r.set("req_p50_ms", slices.Min(p.p50), "ms")
	r.set("req_p90_ms", slices.Min(p.p90), "ms")
	for _, u := range p.unsupported {
		r.fail("percentile with fewer than 10 samples beyond: " + u)
	}
	r.note("rmsd: %d rounds, %d tasks completed, %d evicted; request percentiles are the fastest round's, over %d–%d samples per round",
		p.rounds, p.completed, p.evicted, slices.Min(p.samples), slices.Max(p.samples))
}

// rmsdPerLayer splits a request across the wire codec, the server's Do
// and the socket by replaying round 0's exact lines: encoding and
// DecodeRequest on one goroutine, then Server.Do on a fresh in-process
// server with one goroutine per connection, as the socket run had.
func rmsdPerLayer(r *result, in rmsdRound, base, traced *rmsdPass) error {
	var encNS, decNS, n int64
	decoded := make([][]controlplane.Request, len(in.conns))
	for c, reqs := range in.conns {
		for _, wr := range reqs {
			t0 := nowNS()
			line, err := json.Marshal(wr.req)
			t1 := nowNS()
			req, derr := controlplane.DecodeRequest(bytes.TrimSpace(wr.line), controlplane.MaxRequestBytes)
			t2 := nowNS()
			if err != nil || derr != nil {
				return fmt.Errorf("replaying line %q: %v %v", wr.line, err, derr)
			}
			if !bytes.Equal(append(line, '\n'), wr.line) || !reflect.DeepEqual(req, wr.req) {
				r.fail(fmt.Sprintf("wire codec does not round-trip %q", wr.line))
			}
			encNS += t1 - t0
			decNS += t2 - t1
			n++
			decoded[c] = append(decoded[c], req)
		}
	}
	srv, err := controlplane.New(serverConfig(in.seed))
	if err != nil {
		return err
	}
	defer srv.Shutdown()
	doNS := make([]map[string][]float64, len(decoded))
	var wg sync.WaitGroup
	for c := range decoded {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			doNS[c] = map[string][]float64{}
			for _, req := range decoded[c] {
				t0 := nowNS()
				resp := srv.Do(req)
				doNS[c][req.Op] = append(doNS[c][req.Op], float64(nowNS()-t0))
				if !resp.OK {
					doNS[c]["error"] = append(doNS[c]["error"], 1)
				}
			}
		}(c)
	}
	wg.Wait()
	if resp := srv.Do(controlplane.Request{Op: controlplane.OpDrain}); !resp.OK {
		return fmt.Errorf("in-process drain: %s", resp.Error)
	}
	stats, err := srv.StatsAll()
	if err != nil {
		return err
	}
	if !reflect.DeepEqual(stats, base.model) {
		r.fail("in-process Server.Do replay gives different tenant stats than the socket run")
	}
	ops := map[string][]float64{}
	for _, m := range doNS {
		for op, xs := range m {
			ops[op] = append(ops[op], xs...)
		}
	}
	if len(ops["error"]) > 0 {
		r.fail(fmt.Sprintf("in-process replay: %d error responses", len(ops["error"])))
	}
	r.set("wire.encode_us", float64(encNS)/float64(n)/1e3, "us")
	r.set("wire.decode_us", float64(decNS)/float64(n)/1e3, "us")
	r.set("cp.submit_us", mean(ops[controlplane.OpSubmit])/1e3, "us")
	r.set("cp.status_us", mean(ops[controlplane.OpStatus])/1e3, "us")
	doMean := mean(append(append([]float64(nil), ops[controlplane.OpSubmit]...), ops[controlplane.OpStatus]...)) / 1e3
	rtt := base.meanRTT(controlplane.OpSubmit, controlplane.OpStatus) * 1e3
	r.set("cp.socket_share", 1-(float64(decNS)/float64(n)/1e3+doMean)/rtt, "ratio")
	r.set("cp.drain_ms", median(base.drainNS)/1e6, "ms")
	for _, u := range base.unsupported {
		r.fail("percentile with fewer than 10 samples beyond: " + u)
	}
	r.set("cp.req_p99_ms", slices.Min(base.p99), "ms")
	r.set("cp.req_samples", float64(slices.Min(base.samples)), "count")
	var sub, ev, virt float64
	for _, s := range base.model {
		sub += float64(s.Submitted)
		ev += float64(s.Evicted)
		virt += s.VirtualSeconds
	}
	r.set("cp.evicted_share", ev/sub, "ratio")
	r.set("cp.virtual_s", virt, "sim_s")
	r.note("rmsd traced: %d untraced rounds, %d traced rounds, %d lines replayed", base.rounds, traced.rounds, n)
	return nil
}
