package controlplane

import (
	"testing"

	"repro/internal/jss"
)

// TestDrainSettlesSubmissions pins the JSS bookkeeping behind each
// tenant: after a drain no submission is left queued, completed tasks'
// submissions are done, and evicted or canceled ones are failed. The
// scenario evicts unplaceable tasks and cancels queued ones, so every
// terminal state is exercised.
func TestDrainSettlesSubmissions(t *testing.T) {
	s := cleanGoldenServer(t)
	// Shutdown joins the shard goroutines, so their tenants can be read.
	s.Shutdown()
	seen := map[taskState]int{}
	for _, sh := range s.shards {
		for _, te := range sh.order {
			if n := te.eng.J.QueueLength(); n != 0 {
				t.Errorf("tenant %s: %d submissions still queued after drain", te.id, n)
			}
			for id, ct := range te.tasks {
				want := jss.StatusFailed
				if ct.state == stateDone {
					want = jss.StatusDone
				}
				if ct.sub.Status != want {
					t.Errorf("tenant %s task %s (%s): submission %s, want %s", te.id, id, ct.state, ct.sub.Status, want)
				}
				seen[ct.state]++
			}
		}
	}
	for _, st := range []taskState{stateDone, stateEvicted, stateCanceled} {
		if seen[st] == 0 {
			t.Errorf("scenario produced no %s task; the check is vacuous for it", st)
		}
	}
}

// TestTierRetryBounds pins each tier's retry policy as data the engine
// honours: faults.RetryPolicy reads MaxRetries 0 as unlimited, so every
// tier carries a positive bound, and under faults no tenant retries a
// task more often than its tier allows.
func TestTierRetryBounds(t *testing.T) {
	for _, tier := range Tiers() {
		if tier.Policy().Retry.MaxRetries <= 0 {
			t.Errorf("tier %s: MaxRetries %d would mean unlimited retries", tier, tier.Policy().Retry.MaxRetries)
		}
	}
	if got := TierBackground.Policy().Retry.MaxRetries; got != 1 {
		t.Errorf("background tier retries %d times, want once", got)
	}
	_, stats := runTrace(t, 2, true)
	var bgRetries, bgLost int
	for _, st := range stats {
		tier, err := ParseTier(st.Tier)
		if err != nil {
			t.Fatal(err)
		}
		bound := tier.Policy().Retry.MaxRetries
		if st.Retries > bound*st.Accepted {
			t.Errorf("tenant %s (%s): %d retries over %d tasks exceeds %d per task", st.Tenant, st.Tier, st.Retries, st.Accepted, bound)
		}
		// Every abort is either retried or ends its task as evicted.
		if lost := st.FaultAborts - st.Retries; lost < 0 || lost > st.Evicted {
			t.Errorf("tenant %s: %d aborts, %d retries, %d evicted do not balance", st.Tenant, st.FaultAborts, st.Retries, st.Evicted)
		}
		if tier == TierBackground {
			bgRetries += st.Retries
			bgLost += st.FaultAborts - st.Retries
		}
	}
	// Background work must both get its one retry and be evicted on a
	// second abort, or the bound is untested.
	if bgRetries == 0 || bgLost == 0 {
		t.Errorf("background tenants: %d retries, %d evicted by faults; want both > 0", bgRetries, bgLost)
	}
}
