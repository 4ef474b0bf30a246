package controlplane

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/faults"
)

var updateGolden = flag.Bool("update", false, "rewrite golden state files from the current model")

// compareGolden diffs got against the named testdata file, rewriting it
// first under -update. Review -update diffs like any other code change.
func compareGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", path, len(got))
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden file (regenerate with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted from golden file (regenerate with -update if intended)\ngot:\n%s\nwant:\n%s", name, got, want)
	}
}

// goldenServer runs a small pinned scenario: three tenants on different
// tiers, a few tasks each (one canceled, faults on), drained to
// completion. Any change to admission, placement, fault strikes, retry
// policy, cost accounting, or the dump format shows up as a diff.
func goldenServer(t *testing.T) *Server {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Shards = 2
	cfg.Seed = 7
	cfg.Faults = faults.Spec{CrashRate: 0.1, MeanOutageSeconds: 4, SEURate: 0.1, HorizonSeconds: 200}
	s := newTestServer(t, cfg)
	mustOK(t, s.Do(Request{Op: OpPause}))
	type sub struct {
		tenant, tier string
		task         *TaskSpec
	}
	subs := []sub{
		{"acme", "full", &TaskSpec{ID: "a1", WorkMI: 4000, Parallel: 0.5}},
		{"acme", "full", &TaskSpec{ID: "a2", WorkMI: 9000, Scenario: "userhw", Design: "aes128", Parallel: 0.9}},
		{"acme", "full", &TaskSpec{ID: "a3", WorkMI: 1000}},
		{"birch", "virtualized", &TaskSpec{ID: "b1", WorkMI: 2500, Scenario: "softcore", Parallel: 0.7}},
		{"birch", "virtualized", &TaskSpec{ID: "b2", WorkMI: 500, DataMB: 16}},
		{"cedar", "background", &TaskSpec{ID: "c1", WorkMI: 12000, Parallel: 0.3}},
		{"cedar", "background", &TaskSpec{ID: "c2", WorkMI: 800}},
	}
	for _, sb := range subs {
		mustOK(t, s.Do(Request{Op: OpSubmit, Tenant: sb.tenant, Tier: sb.tier, Task: sb.task}))
	}
	mustOK(t, s.Do(Request{Op: OpCancel, Tenant: "cedar", TaskID: "c2"}))
	mustOK(t, s.Do(Request{Op: OpDrain}))
	return s
}

// TestDumpStateGolden pins the deterministic `rmsd -dump-state` /
// OpDump snapshot format byte for byte.
//
//scenario:golden strategy=first-fit regime=hostile workload=control-plane file=testdata/dump_state.golden
func TestDumpStateGolden(t *testing.T) {
	s := goldenServer(t)
	dump := mustOK(t, s.Do(Request{Op: OpDump})).Dump
	direct, err := s.DumpState()
	if err != nil {
		t.Fatal(err)
	}
	if dump != direct {
		t.Error("OpDump and DumpState disagree")
	}
	compareGolden(t, "dump_state.golden", []byte(dump))
}

// cleanGoldenServer runs a fault-free scenario: two tenants per tier,
// every wire scenario and every catalog design on each tier's slice,
// data-carrying tasks, and cancels of queued, done and unknown tasks,
// drained to completion. Without faults the dump is a pure function of
// placement, reconfiguration, synthesis, execution time and cost, so it
// pins the execution model itself.
func cleanGoldenServer(t *testing.T) *Server {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Shards = 3
	cfg.Seed = 21
	s := newTestServer(t, cfg)
	mustOK(t, s.Do(Request{Op: OpPause}))
	tenants := []struct{ name, tier string }{
		{"fir", "full"}, {"fjord", "full"},
		{"vale", "virtualized"}, {"vista", "virtualized"},
		{"bay", "background"}, {"brook", "background"},
	}
	designs := []string{"aes128", "fft1024", "fir64", "matmul32", "pairalign-core", "malign-core"}
	for i, tn := range tenants {
		n := 0
		submit := func(ts *TaskSpec) {
			ts.ID = fmt.Sprintf("%s-%02d", tn.name, n)
			n++
			// Some userhw designs do not fit the smaller slices; their
			// rejection or eviction is part of the pinned behaviour.
			s.Do(Request{Op: OpSubmit, Tenant: tn.name, Tier: tn.tier, Task: ts})
		}
		for j := 0; j < 3; j++ {
			mi := float64(500 + 1700*j + 300*i)
			submit(&TaskSpec{WorkMI: mi, Parallel: 0.2 * float64(j)})
			submit(&TaskSpec{WorkMI: mi / 2, Scenario: "softcore", Parallel: 0.5, DataMB: float64(4 * j)})
			submit(&TaskSpec{WorkMI: 2 * mi, Scenario: "userhw", Design: designs[(i+j)%len(designs)], Parallel: 0.9})
			submit(&TaskSpec{WorkMI: mi, Scenario: "userhw", Design: designs[(i+j+3)%len(designs)], DataMB: 8})
		}
		// Repeat a design so a resident configuration is reused.
		submit(&TaskSpec{WorkMI: 3000, Scenario: "userhw", Design: designs[i%len(designs)], Parallel: 0.7})
		s.Do(Request{Op: OpCancel, Tenant: tn.name, TaskID: fmt.Sprintf("%s-%02d", tn.name, 1+i%4)})
		s.Do(Request{Op: OpCancel, Tenant: tn.name, TaskID: "missing"})
	}
	mustOK(t, s.Do(Request{Op: OpResume}))
	mustOK(t, s.Do(Request{Op: OpDrain}))
	// Cancels after the drain find terminal tasks.
	s.Do(Request{Op: OpCancel, Tenant: "vale", TaskID: "vale-00"})
	s.Do(Request{Op: OpCancel, Tenant: "bay", TaskID: "bay-05"})
	return s
}

// TestDumpStateCleanGolden pins the fault-free snapshot byte for byte:
// counters, virtual clocks, costs, each slice's resident fabric, and
// every tenant's completion order.
//
//scenario:golden strategy=first-fit regime=none workload=control-plane file=testdata/dump_state_clean.golden
func TestDumpStateCleanGolden(t *testing.T) {
	s := cleanGoldenServer(t)
	var b strings.Builder
	b.WriteString(mustOK(t, s.Do(Request{Op: OpDump})).Dump)
	dumps, err := s.DumpTenants()
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range dumps {
		fmt.Fprintf(&b, "done %s: %s\n", d.Stats.Tenant, strings.Join(d.DoneLog, " "))
	}
	compareGolden(t, "dump_state_clean.golden", []byte(b.String()))
}

// TestDrainEmptiesFabric pins that a drained server holds no fabric
// state: every tenant RPE reports zero busy regions and no loaded
// configurations, and nothing is in flight.
func TestDrainEmptiesFabric(t *testing.T) {
	s := goldenServer(t)
	dumps, err := s.DumpTenants()
	if err != nil {
		t.Fatal(err)
	}
	if len(dumps) != 3 {
		t.Fatalf("tenants = %d, want 3", len(dumps))
	}
	for _, d := range dumps {
		if d.Stats.InFlight != 0 {
			t.Errorf("tenant %s: %d in flight after drain", d.Stats.Tenant, d.Stats.InFlight)
		}
		if !d.Stats.conserved() {
			t.Errorf("tenant %s violates conservation: %+v", d.Stats.Tenant, d.Stats)
		}
		for _, line := range d.Fabric {
			// A leased region renders as "N busy" with N > 0; a drained
			// fabric may keep cached configurations but must not be
			// executing anything.
			if strings.Contains(line, "busy") && !strings.Contains(line, " 0 busy") {
				t.Errorf("tenant %s fabric still busy after drain: %s", d.Stats.Tenant, line)
			}
		}
	}
	// The dump itself must agree that nothing is queued.
	dump := mustOK(t, s.Do(Request{Op: OpDump})).Dump
	if !strings.Contains(dump, "in_flight=0") || strings.Contains(dump, fmt.Sprintf("in_flight=%d", 1)) {
		t.Errorf("dump shows in-flight work after drain:\n%s", dump)
	}
}
