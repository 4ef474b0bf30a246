package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"reflect"
	"runtime"
	"runtime/pprof"

	"sort"
	"testing"
	"time"

	"repro/internal/sim"
)

// smallBacklog and smallStream keep each workload's shape (faults,
// sampling, grid) at a size a unit test can run.
func smallBacklog(t *testing.T) *gridWorkload {
	w := backlogWorkload()
	w.work.Tasks = 40
	w.inputs = 2
	if err := w.init(); err != nil {
		t.Fatal(err)
	}
	return w
}

func smallStream(t *testing.T) *gridWorkload {
	w := streamWorkload()
	w.work.Tasks = 2000
	w.inputs = 1

	if err := w.init(); err != nil {
		t.Fatal(err)
	}
	return w
}

// TestWrappersForwardExactly runs the same replica with and without the
// Scheduler, Strategy and Tracer wrappers: the Metrics must be equal
// field for field and the CSV sink must write the same number of bytes.
func TestWrappersForwardExactly(t *testing.T) {
	for _, w := range []*gridWorkload{smallBacklog(t), smallStream(t)} {
		for seed := uint64(1); seed <= 3; seed++ {
			in, err := w.input(seed, 0)
			if err != nil {
				t.Fatal(err)
			}
			plain, err := w.runReplica(context.Background(), in, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			log := &spanLog{}
			root := log.open(0, "test")
			in, err = w.input(seed, 0)
			if err != nil {
				t.Fatal(err)
			}
			wrapped, err := w.runReplica(context.Background(), in, log, root)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(plain.m, wrapped.m) {
				t.Errorf("%s seed %d: wrapped Metrics differ from plain", w.name, seed)
			}
			if plain.csvBytes != wrapped.csvBytes {
				t.Errorf("%s seed %d: CSV bytes %d wrapped vs %d plain", w.name, seed, wrapped.csvBytes, plain.csvBytes)
			}
			if bad := w.check(in, wrapped); len(bad) > 0 {
				t.Errorf("%s seed %d: checks failed: %v", w.name, seed, bad)
			}
			if wrapped.p.q.events == 0 || wrapped.p.st.calls == 0 || wrapped.p.sink.emits == 0 {
				t.Errorf("%s seed %d: wrappers saw no calls", w.name, seed)
			}
		}
	}
}

// TestDecomposedMatchesRunScenario pins the harness equivalence the
// benchmark checks on every run.
func TestDecomposedMatchesRunScenario(t *testing.T) {
	for _, w := range []*gridWorkload{smallBacklog(t), smallStream(t)} {
		bad, err := w.equivalence(context.Background(), 5)
		if err != nil {
			t.Fatal(err)
		}
		if len(bad) > 0 {
			t.Errorf("%s: %v", w.name, bad)
		}
	}
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	xs := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(i + 1)
		}
		return out
	}
	for _, c := range []struct {
		n         int
		p         float64
		want      float64
		supported bool
	}{
		{100, 0.9, 90, true}, // 10 samples above rank 90
		{99, 0.9, 90, false}, // rank 90 of 99 leaves 9
		{1000, 0.99, 990, true},
		{999, 0.99, 990, false},
		{20, 0.5, 10, true},
		{19, 0.5, 10, false},
		{1, 0.5, 1, false},
	} {
		v, ok := percentile(xs(c.n), c.p)
		if v != c.want || ok != c.supported {
			t.Errorf("percentile(1..%d, %v) = %v, %v; want %v, %v", c.n, c.p, v, ok, c.want, c.supported)
		}
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Error("an empty sample supports no percentile")
	}
}

func TestSeedChangesInputs(t *testing.T) {
	w := smallBacklog(t)
	a, _ := w.input(1, 0)
	b, _ := w.input(1, 0)
	c, _ := w.input(2, 0)
	d, _ := w.input(1, 1)
	first := func(in replicaInput) float64 { return in.gen[0].Task.Work.MInstructions }
	if first(a) != first(b) || !reflect.DeepEqual(a.faults, b.faults) {
		t.Error("the same seed gave different grid inputs")
	}
	if first(a) == first(c) || reflect.DeepEqual(a.faults, c.faults) {
		t.Error("another seed gave the same grid inputs")
	}
	if first(a) == first(d) {
		t.Error("another replica gave the same grid inputs")
	}

	lines := func(seed uint64) []byte {
		in, err := rmsdInputs(seed, 0, 2, 8)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		for _, c := range in.conns {
			for _, wr := range c {
				buf.Write(wr.line)
			}
		}
		return buf.Bytes()
	}
	if !bytes.Equal(lines(1), lines(1)) {
		t.Error("the same seed gave different rmsd request lines")
	}
	if bytes.Equal(lines(1), lines(2)) {
		t.Error("another seed gave the same rmsd request lines")
	}
}

// TestRMSDInputsIndependentOfConnections: a tenant's requests are the
// same whatever the connection count, only distributed differently.
func TestRMSDInputsIndependentOfConnections(t *testing.T) {
	perTenant := func(conns int) map[string][]string {
		in, err := rmsdInputs(9, 0, conns, 8)
		if err != nil {
			t.Fatal(err)
		}
		out := map[string][]string{}
		for _, c := range in.conns {
			for _, wr := range c {
				out[wr.req.Tenant] = append(out[wr.req.Tenant], string(wr.line))
			}
		}
		return out
	}
	if !reflect.DeepEqual(perTenant(1), perTenant(4)) {
		t.Error("tenant request sequences depend on the connection count")
	}
}

func TestRMSDRoundChecksPass(t *testing.T) {
	in, err := rmsdInputs(3, 0, 2, 20)
	if err != nil {
		t.Fatal(err)
	}
	out, err := runRound(context.Background(), in, nil, 0)

	if err != nil {
		t.Fatal(err)
	}
	if out.errors != 0 {
		t.Fatalf("%d error responses: %v", out.errors, out.errNotes)
	}
	if lost, bad := checkStats(out.stats, 20); lost != 0 || len(bad) != 0 {
		t.Fatalf("conservation: %d tasks, %v", lost, bad)
	}
	if out.sent != len(in.conns[0])+len(in.conns[1])+2 {
		t.Errorf("sent %d requests", out.sent)
	}
}

func TestCPUSplitReadsProfile(t *testing.T) {
	runtime.GC() // keep earlier tests' garbage out of the profile
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	deadline := time.Now().Add(300 * time.Millisecond)
	rng := sim.NewRNG(1)
	var sum float64
	for time.Now().Before(deadline) {
		for i := 0; i < 10000; i++ {
			sum += float64(rng.Uint64() & 1)
		}
	}
	pprof.StopCPUProfile()
	r := newResult()
	if err := cpuSplit(r, buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	if r.Metrics["cpu.samples"].Value == 0 {
		t.Fatal("no samples decoded")
	}
	// The race detector's runtime calls can take most samples, so the
	// check is that sim leads every other named package, not a share.
	simShare := r.Metrics["cpu.sim"].Value
	if simShare == 0 {
		t.Errorf("a loop drawing from sim.RNG shows no sim share (notes %v, sum %v)", r.notes, sum)
	}
	for _, b := range cpuBuckets {
		if v := r.Metrics[b.metric].Value; b.metric != "cpu.sim" && v > simShare {
			t.Errorf("%s share %v exceeds cpu.sim %v", b.metric, v, simShare)
		}
	}
}

func TestFuncPackage(t *testing.T) {
	for in, want := range map[string]string{
		"repro/internal/sim.(*WheelQueue).Pop": "repro/internal/sim",
		"encoding/json.(*decodeState).object":  "encoding/json",
		"fmt.Errorf":                           "fmt",
		"runtime.mallocgc":                     "runtime",
		"main.(*countedQueue).Push":            "main",
		"aeshashbody":                          "aeshashbody",
	} {
		if got := funcPackage(in); got != want {
			t.Errorf("funcPackage(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestBenchmarkJSONMatchesProgram keeps BENCHMARK.json and the metric
// names this program prints in step.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type named struct{ Name, Unit string }
	var doc struct {
		Workloads []named
		EndToEnd  []named `json:"end_to_end"`
		PerLayer  []named `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	names := func(xs []named) []string {
		var out []string
		for _, x := range xs {
			out = append(out, x.Name)
		}
		sort.Strings(out)
		return out
	}
	sorted := func(xs []string) []string {
		out := append([]string(nil), xs...)
		sort.Strings(out)
		return out
	}
	if got, want := names(doc.Workloads), []string{"grid-backlog", "grid-stream", "rmsd-mixed"}; !reflect.DeepEqual(got, want) {
		t.Errorf("workloads %v, want %v", got, want)
	}
	if got := names(doc.EndToEnd); !reflect.DeepEqual(got, sorted(endToEndNames)) {
		t.Errorf("end_to_end %v, program prints %v", got, sorted(endToEndNames))
	}
	if got := names(doc.PerLayer); !reflect.DeepEqual(got, sorted(perLayerNames)) {
		t.Errorf("per_layer %v, program prints %v", got, sorted(perLayerNames))
	}
	for _, m := range doc.EndToEnd {
		if u := endToEndUnits[m.Name]; u != m.Unit {
			t.Errorf("end_to_end %s in %s, program prints %s", m.Name, m.Unit, u)
		}
	}
	for _, m := range doc.PerLayer {
		if u := unitOf(m.Name); u != m.Unit {
			t.Errorf("per_layer %s in %s, program prints %s", m.Name, m.Unit, u)
		}
	}
}
