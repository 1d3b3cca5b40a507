// Command perfbench is the repository benchmark. One invocation runs one
// workload for a fixed time, checks every output, and prints its metrics
// as the last line of standard output:
//
//	bash perfbench/run.sh --workload lulesh-analyses --seed 1 --seconds 30 --trace 0
//
// With --trace 0 it reports the end-to-end metrics, measured with the
// benchmark's own tracing off; with --trace 1 it makes traced runs and
// reports the per-layer metrics derived from their spans, which it also
// writes as Chrome trace JSON under .bench_build/trace/. Every measured
// run is a fresh child process of this binary, so no run inherits
// another's process-global state. See README.md for the workloads and
// the metrics.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// options are the parsed command line, shared by parent and children.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	tiny     bool   // small inputs, for the benchmark's own tests
	root     string // checkout root (the working directory); scratch data lives under .bench_build
	child    string // child role; empty in the parent
	data     string // child: the setup data directory
}

// childResult is what one child process reports on its last stdout line.
type childResult struct {
	// Ops and Failed count the operations the child attempted and those
	// that failed a check.
	Ops    int      `json:"ops"`
	Failed int      `json:"failed"`
	Errors []string `json:"errors,omitempty"`
	// Seconds is the measured interval: run_s for an operation, the
	// set-up time for a set-up child.
	Seconds float64 `json:"seconds"`
	// Values are named measurements and counters.
	Values map[string]float64 `json:"values,omitempty"`
	// Samples are snapshot latencies in milliseconds.
	Samples []float64 `json:"samples,omitempty"`
	// Digest identifies the outputs that must repeat byte for byte.
	Digest string `json:"digest,omitempty"`
	Spans  []span `json:"spans,omitempty"`

	// Filled by the parent.
	rssMB   float64
	crashed bool
}

func (r *childResult) fail(format string, args ...any) {
	r.Failed++
	r.Errors = append(r.Errors, fmt.Sprintf(format, args...))
}

func (r *childResult) set(name string, v float64) {
	if r.Values == nil {
		r.Values = map[string]float64{}
	}
	r.Values[name] = v
}

// workload is one benchmark input family.
type workload struct {
	name string
	// opsPerChild is how many operations a child that crashes counts as.
	opsPerChild int
	// setup builds the inputs and reference outputs into dir; a second
	// set-up into a directory that already holds them checks that it
	// rebuilt them byte for byte.
	setup func(o options, dir string) childResult
	// op runs one measured operation; rec is nil unless traced.
	op func(o options, dir string, rec *recorder) childResult
	// plain runs the uninstrumented baseline, or is nil.
	plain func(o options, dir string) childResult
}

var workloads = []*workload{luleshWorkload, fleetWorkload}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// setupRepeats is how many times a run builds its inputs; setup_s is the
// median.
const setupRepeats = 5

// childTimeout bounds one child; a hung operation is killed and failed.
const childTimeout = 60 * time.Second

func main() {
	os.Exit(run(os.Args[1:]))
}

// run is the command: a parent run, or a child role when -child is set.
func run(args []string) int {
	o := options{root: "."}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "workload name")
	fs.Int64Var(&o.seed, "seed", 1, "workload seed")
	fs.IntVar(&o.seconds, "seconds", 10, "measured seconds")
	fs.IntVar(&o.trace, "trace", 0, "1: traced run reporting per-layer metrics")
	fs.BoolVar(&o.tiny, "tiny", false, "small inputs (tests)")
	fs.StringVar(&o.child, "child", "", "internal: child role")
	fs.StringVar(&o.data, "data", "", "internal: set-up data directory")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w := findWorkload(o.workload)
	if w == nil {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", o.workload)
		return 2
	}
	if o.child != "" {
		return runChild(o, w)
	}
	res, err := runParent(o, w)
	if err == nil {
		var line []byte
		if line, err = json.Marshal(res); err == nil {
			fmt.Println(string(line))
			return 0
		}
	}
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	return 1
}

// runChild performs one child role and prints its result.
func runChild(o options, w *workload) int {
	var res childResult
	switch o.child {
	case "setup":
		res = w.setup(o, o.data)
	case "op":
		res = w.op(o, o.data, nil)
	case "traced":
		rec := newRecorder()
		res = w.op(o, o.data, rec)
		res.Spans = rec.closed()
	case "plain":
		res = w.plain(o, o.data)
	default:
		fmt.Fprintf(os.Stderr, "perfbench: unknown child role %q\n", o.child)
		return 2
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// spawn runs one child role in a fresh process and collects its result.
// A child that crashes, hangs or prints no result counts as failed
// operations, with its wall time as the measured interval.
func spawn(o options, w *workload, role string) childResult {
	exe, err := os.Executable()
	if err != nil {
		return childResult{Ops: w.opsPerChild, Failed: w.opsPerChild, Errors: []string{err.Error()}, crashed: true}
	}
	args := []string{"-child", role, "-workload", w.name, "-seed", strconv.FormatInt(o.seed, 10), "-data", o.data}
	if o.tiny {
		args = append(args, "-tiny")
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	start := time.Now()
	err = cmd.Run()
	wall := time.Since(start).Seconds()

	var res childResult
	if err == nil {
		err = json.Unmarshal(lastLine(stdout.Bytes()), &res)
	}
	if err != nil {
		msg := err.Error()
		if ctx.Err() != nil {
			msg = "timed out after " + childTimeout.String()
		}
		if tail := firstLines(stderr.String(), 3); tail != "" {
			msg += ": " + tail
		}
		res = childResult{Ops: w.opsPerChild, Failed: w.opsPerChild, Errors: []string{msg}, Seconds: wall, crashed: true}
	}
	if cmd.ProcessState != nil {
		if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
			res.rssMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
		}
	}
	for _, e := range res.Errors {
		fmt.Fprintf(os.Stderr, "perfbench: %s %s: %s\n", w.name, role, e)
	}
	return res
}

func lastLine(b []byte) []byte {
	b = bytes.TrimRight(b, "\n")
	if i := bytes.LastIndexByte(b, '\n'); i >= 0 {
		return b[i+1:]
	}
	return b
}

func firstLines(s string, n int) string {
	lines := strings.SplitN(strings.TrimSpace(s), "\n", n+1)
	if len(lines) > n {
		lines = lines[:n]
	}
	return strings.Join(lines, " | ")
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// tally accumulates children's operation counts.
type tally struct{ attempted, failed int }

func (t *tally) add(r childResult) {
	t.attempted += r.Ops
	t.failed += r.Failed
}

// runParent sets up, runs the measured children until the time is up,
// and aggregates their results.
func runParent(o options, w *workload) (*result, error) {
	if o.seconds < 1 {
		return nil, errors.New("--seconds must be at least 1")
	}
	if o.trace != 0 && o.trace != 1 {
		return nil, errors.New("--trace must be 0 or 1")
	}
	printHeader(o)
	build := filepath.Join(o.root, ".bench_build")
	dir, err := os.MkdirTemp(mustDir(build, "runs"), w.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	o.data = dir

	var setups []float64
	repeats := setupRepeats
	if o.trace == 1 {
		repeats = 1 // set-up time is an end-to-end metric only
	}
	for i := 0; i < repeats; i++ {
		r := spawn(o, w, "setup")
		if r.Failed > 0 {
			return nil, fmt.Errorf("%s set-up failed: %s", w.name, strings.Join(r.Errors, "; "))
		}
		setups = append(setups, r.Seconds)
	}

	var t tally
	var m map[string]metric
	if o.trace == 0 {
		m = measure(o, w, &t)
		m["setup_s"] = metric{median(setups), "s"}
	} else {
		m, err = measureLayers(o, w, &t, filepath.Join(build, "trace"))
		if err != nil {
			return nil, err
		}
	}
	printMetrics(m)
	return &result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: m}, nil
}

func mustDir(parts ...string) string {
	p := filepath.Join(parts...)
	_ = os.MkdirAll(p, 0o755) // MkdirTemp reports the failure
	return p
}

// digestCheck fails results whose outputs differ from the first one's.
type digestCheck struct{ want string }

func (d *digestCheck) check(r *childResult) {
	if r.crashed || r.Digest == "" {
		return
	}
	if d.want == "" {
		d.want = r.Digest
		return
	}
	if r.Digest != d.want {
		r.fail("outputs differ from the first run of the same input")
	}
}

// measure runs untraced operation children for the run's seconds and
// returns the end-to-end metrics.
func measure(o options, w *workload, t *tally) map[string]metric {
	var runs, rss, rates, samples []float64
	var same digestCheck
	start := time.Now()
	for len(runs) == 0 || time.Since(start) < time.Duration(o.seconds)*time.Second {
		r := spawn(o, w, "op")
		same.check(&r)
		t.add(r)
		runs = append(runs, r.Seconds)
		rss = append(rss, r.rssMB)
		rate := 0.0
		if r.Seconds > 0 {
			rate = r.Values["records"] / r.Seconds
		}
		rates = append(rates, rate)
		samples = append(samples, r.Samples...)
	}
	if !percentileHolds(len(samples), 0.95) {
		fmt.Printf("# snapshot_ms_p95 rests on %d samples, fewer than the %d that put %d beyond it\n",
			len(samples), samplesFor(0.95), minBeyond)
	}
	fmt.Printf("# op children: %d, snapshot samples: %d\n", len(runs), len(samples))
	return map[string]metric{
		"run_s":                {median(runs), "s"},
		"peak_rss_mb":          {median(rss), "MiB"},
		"ingest_records_per_s": {median(rates), "records/s"},
		"snapshot_ms_p50":      {percentile(samples, 0.5), "ms"},
		"snapshot_ms_p95":      {percentile(samples, 0.95), "ms"},
	}
}

// measureLayers runs rounds of (plain,) untraced and traced children for
// the run's seconds, derives the per-layer metrics of each round from the
// traced child's spans, and reports their medians. The spans of every
// traced child are written as one Chrome trace.
func measureLayers(o options, w *workload, t *tally, traceDir string) (map[string]metric, error) {
	per := map[string][]float64{}
	var procs [][]span
	var same digestCheck
	start := time.Now()
	for len(procs) == 0 || time.Since(start) < time.Duration(o.seconds)*time.Second {
		var plain childResult
		if w.plain != nil {
			plain = spawn(o, w, "plain")
			t.add(plain)
		}
		untraced := spawn(o, w, "op")
		same.check(&untraced)
		traced := spawn(o, w, "traced")
		same.check(&traced)
		if sim, ok := traced.Values["cuda.sim_ms"]; ok && !untraced.crashed && sim != untraced.Values["cuda.sim_ms"] {
			traced.fail("simulated time %v ms differs from the untraced run's %v ms", sim, untraced.Values["cuda.sim_ms"])
		}
		t.add(untraced)
		t.add(traced)
		procs = append(procs, traced.Spans)
		vals := layerValues(w, traced, untraced, plain)
		for _, d := range layerMetrics {
			per[d.name] = append(per[d.name], vals[d.name])
		}
	}
	m := map[string]metric{}
	for _, d := range layerMetrics {
		m[d.name] = metric{median(per[d.name]), d.unit}
	}
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(traceDir, fmt.Sprintf("%s-seed%d.json", w.name, o.seed))
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := writeChromeTrace(f, procs); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	fmt.Printf("# spans of %d traced runs: %s\n", len(procs), path)
	return m, nil
}

// printHeader prints the machine the run measures.
func printHeader(o options) {
	fmt.Printf("# perfbench workload=%s seed=%d seconds=%d trace=%d\n", o.workload, o.seed, o.seconds, o.trace)
	fmt.Printf("# nproc=%d GOMAXPROCS=%d go=%s %s/%s\n", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH)
	fmt.Printf("# cpu=%q %s\n", cpuModel(), cacheSizes())
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// cacheSizes lists cpu0's cache levels from sysfs, e.g. "L1d=32K L2=4096K".
func cacheSizes() string {
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	var out []string
	for _, d := range dirs {
		level, err1 := os.ReadFile(filepath.Join(d, "level"))
		size, err2 := os.ReadFile(filepath.Join(d, "size"))
		typ, err3 := os.ReadFile(filepath.Join(d, "type"))
		if err1 != nil || err2 != nil || err3 != nil {
			continue
		}
		name := "L" + strings.TrimSpace(string(level))
		switch strings.TrimSpace(string(typ)) {
		case "Data":
			name += "d"
		case "Instruction":
			name += "i"
		}
		out = append(out, name+"="+strings.TrimSpace(string(size)))
	}
	if len(out) == 0 {
		return "caches=unknown"
	}
	sort.Strings(out)
	return strings.Join(out, " ")
}

func printMetrics(m map[string]metric) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("# %-28s %14.6g %s\n", n, m[n].Value, m[n].Unit)
	}
}
