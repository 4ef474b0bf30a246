package main

import (
	"time"

	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/sim"
)

// The wrappers below sit on the seams grid.Config already exposes
// (Scheduler, Strategy, Tracer). They forward every call unchanged,
// count it, and add the time spent inside the wrapped layer. Counters
// only grow: callers take deltas around the span they attribute work to.
// Only the traced pass installs them.

// epoch anchors span timestamps; monotonic readings make them immune to
// wall-clock steps.
var epoch = time.Now()

func nowNS() int64 { return int64(time.Since(epoch)) }

// queueLayer counts and times calls into a sim.Scheduler.
type queueLayer struct {
	calls                  int64
	pushes, events, cancel int64
	peakPending            int
	busyNS                 int64
}

// wrap returns a Scheduler forwarding to q and counting into l.
func (l *queueLayer) wrap(q sim.Scheduler) sim.Scheduler { return &countedQueue{q: q, l: l} }

type countedQueue struct {
	q sim.Scheduler
	l *queueLayer
}

func (c *countedQueue) Push(t sim.Time, priority int, label string, fn sim.Handler) sim.EventRef {
	t0 := nowNS()
	ref := c.q.Push(t, priority, label, fn)
	c.l.calls++
	c.l.pushes++
	c.l.peakPending = max(c.l.peakPending, c.q.Len())
	c.l.busyNS += nowNS() - t0
	return ref
}

func (c *countedQueue) Peek() *sim.Event {
	t0 := nowNS()
	e := c.q.Peek()
	c.l.calls++
	c.l.busyNS += nowNS() - t0
	return e
}

func (c *countedQueue) Pop() *sim.Event {
	t0 := nowNS()
	e := c.q.Pop()
	c.l.calls++
	if e != nil {
		c.l.events++
	}
	c.l.busyNS += nowNS() - t0
	return e
}

func (c *countedQueue) Cancel(ref sim.EventRef) bool {
	t0 := nowNS()
	ok := c.q.Cancel(ref)
	c.l.calls++
	if ok {
		c.l.cancel++
	}
	c.l.busyNS += nowNS() - t0
	return ok
}

func (c *countedQueue) Len() int { return c.q.Len() }

// strategyLayer counts and times sched.Strategy.Choose calls. A call that
// returns an option index is followed by exactly one Matchmaker.Allocate
// attempt (grid's dispatchOne), so attempts count rms allocations from
// outside the rms package.
type strategyLayer struct {
	inner                  sched.Strategy
	calls, options, chosen int64
	busyNS                 int64
}

func (s *strategyLayer) Name() string { return s.inner.Name() }

func (s *strategyLayer) Choose(opts []sched.Option) int {
	t0 := nowNS()
	i := s.inner.Choose(opts)
	s.calls++
	s.options += int64(len(opts))
	if i >= 0 {
		s.chosen++
	}
	s.busyNS += nowNS() - t0
	return i
}

// sinkLayer counts and times calls into a TraceSink, tallying events by
// kind so the trace can be checked against the engine's Metrics.
type sinkLayer struct {
	inner   obs.TraceSink
	emits   int64
	samples int64
	kinds   map[obs.Kind]int
	busyNS  int64
}

func newSinkLayer(inner obs.TraceSink) *sinkLayer {
	return &sinkLayer{inner: inner, kinds: make(map[obs.Kind]int)}
}

func (s *sinkLayer) Emit(ev obs.Event) {
	t0 := nowNS()
	s.inner.Emit(ev)
	s.emits++
	s.kinds[ev.Kind]++
	s.busyNS += nowNS() - t0
}

func (s *sinkLayer) Sample(sa obs.Sample) {
	t0 := nowNS()
	s.inner.Sample(sa)
	s.samples++
	s.busyNS += nowNS() - t0
}

func (s *sinkLayer) Flush() error { return s.inner.Flush() }
func (s *sinkLayer) Close() error { return s.inner.Close() }

// countingWriter discards what the CSV sink writes and counts the bytes.
type countingWriter struct{ n int64 }

func (w *countingWriter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return len(p), nil
}

// span is one traced interval. Aggregated spans (Calls > 0) stand for
// many short calls into one layer under their parent: Dur is their summed
// time and Start is the parent's start.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	Dur    int64  `json:"dur_ns"`
	Calls  int64  `json:"calls,omitempty"`
}

// spanLog keeps spans in memory until the run ends.
type spanLog struct{ spans []span }

// open starts a span and returns its ID; close it with end.
func (l *spanLog) open(parent int, name string) int {
	id := len(l.spans) + 1
	l.spans = append(l.spans, span{ID: id, Parent: parent, Name: name, Start: nowNS()})
	return id
}

func (l *spanLog) end(id int) int64 {
	s := &l.spans[id-1]
	s.Dur = nowNS() - s.Start
	return s.Dur
}

// add records a finished span whose bounds the caller measured.
func (l *spanLog) add(parent int, name string, start, dur int64) int {
	id := len(l.spans) + 1
	l.spans = append(l.spans, span{ID: id, Parent: parent, Name: name, Start: start, Dur: dur})
	return id
}

// aggregate records calls into a layer under parent.
func (l *spanLog) aggregate(parent int, name string, calls, dur int64) {
	if calls == 0 {
		return
	}
	id := len(l.spans) + 1
	l.spans = append(l.spans, span{ID: id, Parent: parent, Name: name, Start: l.spans[parent-1].Start, Dur: dur, Calls: calls})
}

// selfNS gives every span's duration minus the time its direct children
// cover, indexed by span ID. Children of one span never overlap here: the
// wrapped layers never call one another, and the request spans of one
// connection follow each other.
func (l *spanLog) selfNS() []int64 {
	self := make([]int64, len(l.spans)+1)
	for _, s := range l.spans {
		self[s.ID] += s.Dur
		if s.Parent > 0 {
			self[s.Parent] -= s.Dur
		}
	}
	return self
}
