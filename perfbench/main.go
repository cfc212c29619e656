// Command perfbench is pathflow's end-to-end benchmark. It runs one
// seeded workload against pathflow's public API in a single process,
// checks every output, and prints its metrics; the last line of
// standard output is one JSON object.
//
//	perfbench --workload sweep|feasible|replay --seed N --seconds S --trace 0|1
//
// With --trace 0 the JSON carries the end-to-end metrics. With --trace 1
// the run records spans around every call it makes into the program,
// writes them under --out, runs the layer probe (which also drives a
// serve daemon), and the JSON carries the per-layer metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// setupReps is how many times a run sets its workload up; setup_s is
// the median.
const setupReps = 5

// Env is what every workload shares: the seed, the worker count, a
// private scratch directory inside the checkout, and the workload's
// generated sources, drawn once per run before set-up is timed.
type Env struct {
	seed    uint64
	workers int
	dir     string
	gen     []*Input
}

// Metric is one named, unit-tagged value of the final JSON line.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the final JSON line.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: sweep, feasible or replay")
	seed := fs.Uint64("seed", 1, "seed for every generated input")
	seconds := fs.Float64("seconds", 10, "measurement length in seconds")
	traceFlag := fs.Int("trace", 0, "1 records spans and reports per-layer metrics")
	out := fs.String("out", filepath.Join(".bench_build", "perfbench"), "directory for scratch files and traces")
	describeOnly := fs.Bool("describe", false, "set the workload up once, print its input properties as JSON and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	spec, ok := genSpecs[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	dir, err := os.MkdirTemp(*out, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)
	env := &Env{seed: *seed, workers: runtime.NumCPU(), dir: dir}
	// Drawing the generated programs compiles, trains and weighs many
	// candidates and keeps a few; that is input selection, not set-up, so
	// it happens once and untimed.
	if spec != nil {
		if env.gen, err = generate(*seed, *spec); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: generating inputs:", err)
			return 1
		}
	}
	traced := *traceFlag == 1

	var tr *Tracer
	if traced {
		tr = newTracer()
	}

	if *describeOnly {
		w, err := newBatch(env, *name, nil, -1)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: set-up:", err)
			return 1
		}
		defer w.Close()
		data, err := json.Marshal(describe(w))
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		fmt.Println(string(data))
		return 0
	}

	// Set-up, several times: compiling and training every input, and for
	// replay filling the cache directory. The loop runs on the last one.
	// setup_s is user CPU time: creating the same files costs from 0.1 to
	// 1.5 s of system time on a shared disk from one run to the next,
	// whatever the program does, so system time and wall time are
	// reported beside it but do not make it.
	var setups, setupSys, setupWalls []float64
	var w *Batch
	for i := 0; i < setupReps; i++ {
		if w != nil {
			w.Close()
		}
		runtime.GC()
		t0 := time.Now()
		u0, s0 := rusage()
		id := tr.Begin("bench.setup", -1)
		w, err = newBatch(env, *name, tr, id)
		tr.End(id)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: set-up:", err)
			return 1
		}
		u1, s1 := rusage()
		setups = append(setups, (u1 - u0).Seconds())
		setupSys = append(setupSys, (s1 - s0).Seconds())
		setupWalls = append(setupWalls, time.Since(t0).Seconds())
	}
	defer w.Close()
	runtime.GC()

	lr := w.Loop(time.Duration(*seconds*float64(time.Second)), tr)
	rss := peakRSSMB()

	t := w.Check(tr)
	var probe *Probe
	if traced {
		probe = runProbe(env, w.Inputs(), tr)
		t.merge(probe.t)
	}
	res := Result{Correct: t.failed == 0, Attempted: t.attempted, Failed: min(t.failed, t.attempted)}
	sum, wall := w.Summary(lr, true), w.Summary(lr, false)
	report(os.Stdout, *name, *seed, lr, sum, wall, t, setups, setupSys, setupWalls, rss)

	if traced {
		acct := account(tr.Spans())
		acct.Overhead = lr.overhead()
		res.Metrics = layerMetrics(lr, probe, acct)
		path := filepath.Join(*out, fmt.Sprintf("trace-%s-seed%d.json", *name, *seed))
		if err := writeTrace(path, *name, *seed, tr.Spans(), acct); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing trace:", err)
			return 1
		}
		reportTrace(os.Stdout, acct, path)
	} else {
		res.Metrics = endToEnd(sum, setups, rss)
	}

	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// endToEnd builds the untraced run's metrics: what a user of the system
// sees, with times in CPU time (see passSummary). setup_s is the median
// set-up's user CPU time.
func endToEnd(sum Summary, setups []float64, rss float64) map[string]Metric {
	return map[string]Metric{
		"setup_s":       {median(setups), "s"},
		"peak_rss_mb":   {rss, "MB"},
		"ops_per_cpu_s": {sum.OpsPerS, "1/s"},
		"op_cpu_p50_ms": {sum.P50.Value, "ms"},
		"op_cpu_p90_ms": {sum.P90.Value, "ms"},
	}
}

// peakRSSMB is the process's peak resident set size so far.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// rusage returns the process's user and system CPU time so far, over
// all its threads.
func rusage() (user, sys time.Duration) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	return time.Duration(ru.Utime.Nano()), time.Duration(ru.Stime.Nano())
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	u, s := rusage()
	return u + s
}

// report prints the human-readable summary: every end-to-end figure the
// benchmark defines, by name and unit, with sample counts, in CPU time
// (the JSON's figures) and in wall time (the issue's names).
func report(f *os.File, name string, seed uint64, lr *LoopResult, sum, wall Summary, t tally, setups, setupSys, setupWalls []float64, rss float64) {
	all := lr.class("")
	fmt.Fprintf(f, "workload %s seed %d: %d operations in %.2fs\n", name, seed, len(all), lr.elapsed.Seconds())
	fmt.Fprintf(f, "  setup_s        %.3f s user CPU (median of %s); system CPU %.3f s, wall %.3f s (medians)\n",
		median(setups), fmtList(setups), median(setupSys), median(setupWalls))
	fmt.Fprintf(f, "  peak_rss_mb    %.1f MB\n", rss)
	fmt.Fprintf(f, "  failed_frac    %.4f (%d of %d)\n", t.failedFrac(), t.failed, t.attempted)
	slowest := ""
	if sum.P90.Beyond == 0 {
		slowest = fmt.Sprintf(", the slowest of %d", sum.P90.N)
	}
	fmt.Fprintf(f, "  ops_per_cpu_s  %.2f 1/s    programs_per_s %.2f 1/s\n", sum.OpsPerS, wall.OpsPerS)
	fmt.Fprintf(f, "  op_cpu_p50_ms  %.3f ms    analyze_p50_ms %.3f ms\n", sum.P50.Value, wall.P50.Value)
	fmt.Fprintf(f, "  op_cpu_p90_ms  %.3f ms    analyze_p90_ms %.3f ms (%d beyond%s)\n", sum.P90.Value, wall.P90.Value, sum.P90.Beyond, slowest)
	fmt.Fprintf(f, "    over %s\n", sum.Basis)
	fmt.Fprintf(f, "  pass           %.1f ms wall, %.1f ms CPU (medians of %d complete passes)\n", median(lr.passes), median(lr.cpus), len(lr.passes))
	tl := tail(all)
	fmt.Fprintf(f, "  %-14s %.3f ms (all %d operations pooled, %d beyond)\n", fmt.Sprintf("analyze_p%g_ms", tl.P), tl.Value, tl.N, tl.Beyond)
	for _, c := range lr.classes() {
		p := percentile(lr.class(c), 50)
		fmt.Fprintf(f, "  %-14s %.3f ms (n=%d)\n", c+"_p50_ms", p.Value, p.N)
	}
	for _, e := range t.errs {
		fmt.Fprintln(f, "  FAILED:", e)
	}
}

func fmtList(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.3f", x)
	}
	return strings.Join(parts, " ")
}
