// Command perfbench is the repository benchmark. One run drives one
// workload from one process and prints, as the last line of standard
// output, a JSON object with the output checks' verdict, the operations
// attempted and failed, and every metric by name with its unit:
//
//	bash perfbench/run.sh --workload grid-backlog --seed 7 --seconds 30 --trace 0
//
// --trace 0 runs the timed pass alone and reports the end-to-end
// metrics. --trace 1 runs an untraced pass and then a traced one (seam
// wrappers, spans, a CPU profile), each for half the time, and reports
// the per-layer metrics. See README.md for the workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	out      string
}

// runDeadline keeps a run inside the 180-second limit even when a
// replica diverges: the context stops the event loop.
const runDeadline = 170 * time.Second

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var opt options
	var trace int
	fs.StringVar(&opt.workload, "workload", "", "grid-backlog, grid-stream or rmsd-mixed")
	fs.Uint64Var(&opt.seed, "seed", 1, "workload seed")
	fs.Float64Var(&opt.seconds, "seconds", 30, "measured time per run")
	fs.IntVar(&trace, "trace", 0, "1 adds the traced per-layer pass")
	fs.StringVar(&opt.out, "out", filepath.Join(".bench_build", "perfbench"), "directory for span files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	opt.trace = trace == 1
	if (trace != 0 && trace != 1) || opt.seconds <= 0 || opt.seconds > 60 {
		fmt.Fprintln(stderr, "perfbench: --trace takes 0 or 1 and --seconds a value in (0, 60]")
		return 2
	}
	ctx, cancel := context.WithTimeout(context.Background(), runDeadline)
	defer cancel()
	var res *result
	var err error
	switch opt.workload {
	case "grid-backlog":
		res, err = runGrid(ctx, backlogWorkload(), opt)
	case "grid-stream":
		res, err = runGrid(ctx, streamWorkload(), opt)
	case "rmsd-mixed":
		res, err = runRMSD(ctx, opt)
	default:
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", opt.workload)
		return 2
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", opt.workload, err)
		return 1
	}
	if err := res.print(stdout, opt.trace); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the run's verdict. Correct turns false on the first failed
// check; each failed check also counts as a failed operation.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	notes     []string
}

func newResult() *result { return &result{Correct: true, Metrics: map[string]metric{}} }

func (r *result) set(name string, v float64, unit string) { r.Metrics[name] = metric{v, unit} }

func (r *result) fail(msgs ...string) {
	for _, m := range msgs {
		r.Correct = false
		r.Failed++
		r.notes = append(r.notes, "CHECK FAILED: "+m)
	}
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// endToEndNames and perLayerNames are the metrics BENCHMARK.json
// declares; a run prints exactly one of the two sets.
var endToEndNames = []string{
	"setup_s", "tasks_per_s", "cpu_ms_per_task", "allocs_per_task", "bytes_per_task",
	"peak_rss_mb", "sim_turnaround_s", "req_p50_ms", "req_p90_ms",
}

// endToEndUnits are the units BENCHMARK.json gives the end-to-end metrics.
var endToEndUnits = map[string]string{
	"setup_s": "s", "tasks_per_s": "1/s", "cpu_ms_per_task": "ms", "allocs_per_task": "count",
	"bytes_per_task": "B", "peak_rss_mb": "MB", "sim_turnaround_s": "sim_s",
	"req_p50_ms": "ms", "req_p90_ms": "ms",
}

var perLayerNames = []string{
	"sim.events_per_task", "sim.pushes_per_task", "sim.cancels_per_task", "sim.peak_pending", "sim.busy_share",
	"sched.choose_calls_per_task", "sched.options_per_call", "sched.busy_share",
	"rms.allocate_attempts_per_task", "rms.allocate_failures_per_task", "rms.place_ratio",
	"fabric.reconfigs_per_task", "fabric.reuses_per_task", "fabric.compactions_per_task", "fabric.reconfig_s",
	"faults.retries", "faults.tasks_lost", "faults.lease_expiries", "faults.mttr_s",
	"obs.events_per_task", "obs.samples", "obs.bytes_per_task", "obs.busy_share",
	"grid.build_ms", "grid.submit_ms", "grid.self_share", "grid.dispatches_per_task",
	"wire.encode_us", "wire.decode_us", "cp.submit_us", "cp.status_us", "cp.socket_share",
	"cp.drain_ms", "cp.req_p99_ms", "cp.req_samples", "cp.evicted_share", "cp.virtual_s",
	"cpu.sim", "cpu.grid", "cpu.rms", "cpu.fabric", "cpu.sched", "cpu.obs", "cpu.controlplane",
	"cpu.json", "cpu.fmt", "cpu.gc", "cpu.other", "cpu.samples",
	"trace.overhead_share", "trace.base_tasks_per_s", "trace.spans",
}

// print writes the human-readable lines, then the JSON verdict as the
// last line. A layer a workload does not exercise reads 0, marked in the
// human lines, so every run of a mode prints the same names.
func (r *result) print(w io.Writer, trace bool) error {
	names := endToEndNames
	if trace {
		names = perLayerNames
	}
	out := &result{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]metric{}}
	for _, n := range names {
		m, ok := r.Metrics[n]
		if !ok {
			if !trace {
				return fmt.Errorf("end-to-end metric %s was not measured", n)
			}
			m = metric{0, unitOf(n)}
		}
		want := endToEndUnits[n]
		if trace {
			want = unitOf(n)
		}
		if m.Unit != want {
			return fmt.Errorf("metric %s is in %s, BENCHMARK.json declares %s", n, m.Unit, want)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is %v", n, m.Value)
		}
		out.Metrics[n] = m
		flag := ""
		if !ok {
			flag = "  (not on this workload's path)"
		}
		fmt.Fprintf(w, "%-32s %16.6g %s%s\n", n, m.Value, m.Unit, flag)
	}
	for _, n := range r.notes {
		fmt.Fprintln(w, "#", n)
	}
	fmt.Fprintf(w, "# correct=%v attempted=%d failed=%d\n", r.Correct, r.Attempted, r.Failed)
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// unitOf gives a layer metric's unit, as BENCHMARK.json declares it.
func unitOf(name string) string {
	switch {
	case strings.HasSuffix(name, "_share"), name == "rms.place_ratio", strings.HasPrefix(name, "cpu.") && name != "cpu.samples":
		return "ratio"
	case strings.HasSuffix(name, "_ms"):
		return "ms"
	case strings.HasSuffix(name, "_us"):
		return "us"
	case strings.HasSuffix(name, "_per_s"):
		return "1/s"
	case strings.HasSuffix(name, "_s"):
		return "sim_s"
	case strings.HasSuffix(name, "bytes_per_task"):
		return "B"
	}
	return "count"
}

// cpuNS is the process's user plus system CPU time: every goroutine,
// the garbage collector and, on rmsd-mixed, the server's shards.
func cpuNS() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// peakRSSMB is the process's resident-set high-water mark.

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// writeSpans writes the traced pass's spans as JSON lines, one file per
// workload and seed, under the output directory.
func writeSpans(opt options, workload string, log *spanLog) error {
	if err := os.MkdirAll(opt.out, 0o755); err != nil {
		return err
	}
	path := filepath.Join(opt.out, fmt.Sprintf("spans-%s-seed%d.jsonl", workload, opt.seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range log.spans {
		if err := enc.Encode(s); err != nil {
			_ = f.Close()
			return err
		}
	}
	return f.Close()
}
