// Command bench is the repository's benchmark: it drives the public entry
// points users call — sos.Frontier, sos.Synthesize, and a separately
// started sosd over HTTP — on four named workloads, checks every answer,
// and prints every metric by name with its unit. See README.md.
//
// Run it through the wrapper, which builds it and sosd from source:
//
//	bash bench/run.sh --workload paper-milp --seed 1 --seconds 15 --trace 0
//	bash bench/run.sh --seed 1                 # all four workloads
//	bash bench/run.sh -compare a.jsonl b.jsonl # two sets of -out records
//
// The last line of a single-workload run is one JSON object with the keys
// correct, attempted, failed and metrics: the end-to-end metrics with
// --trace 0, the per-layer metrics with --trace 1.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// config is what one workload run needs to know.
type config struct {
	seed     int64
	seconds  float64 // length of the timed part of the run
	trace    bool    // run the traced pass and report per-layer metrics
	traceOut string  // JSONL file for the traced pass's spans
	sosd     string  // sosd binary (sosd-mixed only)

	// smoke shrinks a run for the package's own test: one worker, in this
	// process, one timed pass, and only the cheapest item of a batch
	// workload.
	smoke bool
}

// metric is one measured value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// MarshalJSON keeps the record valid JSON when a failed request made a
// latency infinite: such a value is written as 1e12 (the run is then
// already marked incorrect).
func (m metric) MarshalJSON() ([]byte, error) {
	v := m.Value
	if math.IsInf(v, 0) || math.IsNaN(v) {
		v = 1e12
	}
	return json.Marshal(struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}{v, m.Unit})
}

// report collects a workload run's outcome.
type report struct {
	attempted, failed int
	firstErrs         []string
	e2e, layer, extra map[string]metric
	notes             []string
	spans             []span
}

func newReport() *report {
	return &report{e2e: map[string]metric{}, layer: map[string]metric{}, extra: map[string]metric{}}
}

// check counts one checked operation and whether it failed.
func (r *report) check(what string, err error) {
	r.attempted++
	if err != nil {
		r.failed++
		if len(r.firstErrs) < 5 {
			r.firstErrs = append(r.firstErrs, fmt.Sprintf("%s: %v", what, err))
		}
	}
}

// merge adds checks counted in another process.
func (r *report) merge(attempted, failed int, errs []string) {
	r.attempted += attempted
	r.failed += failed
	for _, e := range errs {
		if len(r.firstErrs) < 5 {
			r.firstErrs = append(r.firstErrs, e)
		}
	}
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// result is the last line of a run's standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is what -out appends per run: the result with every metric the
// run took, plus the workload and the provenance. -compare reads it.
type record struct {
	Workload string            `json:"workload"`
	Trace    bool              `json:"trace"`
	Host     provenance        `json:"provenance"`
	Result   result            `json:"result"`
	Layer    map[string]metric `json:"layer,omitempty"`
	Extra    map[string]metric `json:"extra,omitempty"`
}

// provenance says where and from what a result was measured.
type provenance struct {
	Seed       int64  `json:"seed"`
	CPUs       int    `json:"cpus"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	Revision   string `json:"revision"`
}

func hostProvenance(seed int64) provenance {
	p := provenance{Seed: seed, CPUs: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel: cpuModel(), GoVersion: runtime.Version(), Revision: "unknown"}
	dirty := false
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				p.Revision = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
	}
	if dirty {
		p.Revision += "+dirty"
	}
	return p
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// workload is one named set of inputs the benchmark runs.
type workload struct {
	name    string
	setup   batchSetup    // a batch workload's items; nil for sosd-mixed
	nominal time.Duration // a batch workload's nominal pass length (see passCount)
}

// The nominal pass lengths are wall-clock times measured on a 2-CPU host.
var workloads = []workload{
	{"paper-milp", paperMILPItems, 3500 * time.Millisecond},
	{"paper-comb", paperCombItems, 1700 * time.Millisecond},
	{"scale-build", scaleItems, 6500 * time.Millisecond},
	{"sosd-mixed", nil, 0},
}

// workers is how many processes a run spreads its measured work over, one
// after another, each set up afresh: a batch workload's worker processes,
// or sosd-mixed's sosd processes. How fast a process runs the same code
// differs from process to process on a shared host (by up to half, for
// sosd's requests), so a run pools the samples of several; setup_s is the
// median of their set-ups.
const workers = 5

func main() {
	var (
		name     = flag.String("workload", "", "workload to run (default: all four, each in its own process)")
		seed     = flag.Int64("seed", 1, "input seed: the same seed gives the same inputs")
		seconds  = flag.Float64("seconds", 15, "length of the timed part of a run, in seconds")
		traceOn  = flag.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics")
		traceOut = flag.String("trace-out", "", "write the traced pass's spans to this JSONL file")
		sosdBin  = flag.String("sosd", ".bench_build/bin/sosd", "sosd binary for the sosd-mixed workload")
		out      = flag.String("out", "", "append the run's full record (all metrics, provenance) as a JSON line to this file")
		compare  = flag.Bool("compare", false, "compare two files of -out records: bench -compare a.jsonl b.jsonl")
		defPath  = flag.String("benchmark", "BENCHMARK.json", "benchmark definition read by -compare")
		shareK   = flag.Int("share", -1, "internal: run worker k of a batch workload and print its share as JSON")
		budget   = flag.Float64("share-budget", 0, "internal: seconds worker -share may spend on its calls")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatalf("-compare takes two record files")
		}
		ok, err := compareFiles(os.Stdout, *defPath, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatalf("%v", err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}
	if *traceOn != 0 && *traceOn != 1 {
		fatalf("-trace must be 0 or 1")
	}
	cfg := config{seed: *seed, seconds: *seconds, trace: *traceOn == 1, traceOut: *traceOut, sosd: *sosdBin}
	if *name == "" {
		if !runAll() {
			os.Exit(1)
		}
		return
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil {
		fatalf("unknown workload %q", *name)
	}
	if *shareK >= 0 {
		if w.setup == nil || *shareK >= workers {
			fatalf("-share needs a batch workload and a worker below %d", workers)
		}
		sh, err := batchShare(context.Background(), cfg, *w, *shareK, workers, *budget)
		if err != nil {
			fatalf("%s worker %d: %v", w.name, *shareK, err)
		}
		if err := json.NewEncoder(os.Stdout).Encode(sh); err != nil {
			fatalf("%v", err)
		}
		return
	}
	res, err := runOne(os.Stdout, *w, cfg, *out)
	if err != nil {
		fatalf("%s: %v", w.name, err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Println(string(line))
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(1)
}

// runOne runs a workload in this process, prints its human-readable
// report to w, and returns the result line.
func runOne(w io.Writer, wl workload, cfg config, out string) (*result, error) {
	r := newReport()
	run := runSosdMixed
	if wl.setup != nil {
		run = func(ctx context.Context, cfg config, r *report) error { return runBatch(ctx, cfg, r, wl) }
	}
	if err := run(context.Background(), cfg, r); err != nil {
		return nil, err
	}
	host := hostProvenance(cfg.seed)
	fmt.Fprintf(w, "== %s (seed %d, %gs, trace %v) ==\n", wl.name, cfg.seed, cfg.seconds, cfg.trace)
	fmt.Fprintf(w, "host: %d CPUs, GOMAXPROCS %d, %s, %s, revision %s\n",
		host.CPUs, host.GOMAXPROCS, host.CPUModel, host.GoVersion, host.Revision)
	for _, n := range r.notes {
		fmt.Fprintf(w, "  %s\n", n)
	}
	printMetrics(w, "end-to-end", r.e2e)
	if cfg.trace {
		printMetrics(w, "per-layer", r.layer)
	}
	printMetrics(w, "diagnostics", r.extra)
	fmt.Fprintf(w, "checks: %d attempted, %d failed\n", r.attempted, r.failed)
	for _, e := range r.firstErrs {
		fmt.Fprintf(w, "  FAILED %s\n", e)
	}
	if cfg.trace && cfg.traceOut != "" {
		if err := writeSpans(cfg.traceOut, r.spans); err != nil {
			return nil, fmt.Errorf("trace-out: %w", err)
		}
		fmt.Fprintf(w, "spans: %d written to %s\n", len(r.spans), cfg.traceOut)
	}
	res := &result{Correct: r.failed == 0 && r.attempted > 0, Attempted: r.attempted, Failed: r.failed, Metrics: r.e2e}
	if cfg.trace {
		res.Metrics = r.layer
	}
	if out != "" {
		rec := record{Workload: wl.name, Trace: cfg.trace, Host: host,
			Result: result{Correct: res.Correct, Attempted: r.attempted, Failed: r.failed, Metrics: r.e2e},
			Extra:  r.extra}
		if cfg.trace {
			rec.Layer = r.layer
		}
		if err := appendRecord(out, rec); err != nil {
			return nil, fmt.Errorf("out: %w", err)
		}
	}
	return res, nil
}

func printMetrics(w io.Writer, title string, ms map[string]metric) {
	if len(ms) == 0 {
		return
	}
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%s:\n", title)
	for _, n := range names {
		fmt.Fprintf(w, "  %-26s %14.6g %s\n", n, ms[n].Value, ms[n].Unit)
	}
}

func appendRecord(path string, rec record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runAll runs every workload in its own child process, so memory and GC
// state stay per workload, and passes each child's output through.
func runAll() bool {
	self, err := os.Executable()
	if err != nil {
		fatalf("%v", err)
	}
	ok := true
	for _, wl := range workloads {
		args := []string{"-workload", wl.name}
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "workload":
			case "trace-out": // one span file per workload
				args = append(args, "-trace-out", f.Value.String()+"."+wl.name)
			default:
				args = append(args, "-"+f.Name, f.Value.String())
			}
		})
		cmd := exec.Command(self, args...)
		cmd.Stderr = os.Stderr
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			fatalf("%v", err)
		}
		if err := cmd.Start(); err != nil {
			fatalf("%v", err)
		}
		var last string
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			last = sc.Text()
			fmt.Println(last)
		}
		if err := cmd.Wait(); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", wl.name, err)
			ok = false
			continue
		}
		var res result
		if json.Unmarshal([]byte(last), &res) != nil || !res.Correct {
			fmt.Fprintf(os.Stderr, "bench: %s: checks failed\n", wl.name)
			ok = false
		}
	}
	return ok
}

// resetPeakRSS resets a process's VmHWM ("self" or a pid) to its current
// resident set size, so the next peakRSSMB covers only what follows.
func resetPeakRSS(pid string) error {
	return os.WriteFile("/proc/"+pid+"/clear_refs", []byte("5"), 0)
}

// peakRSSMB returns the VmHWM of a process ("self" or a pid) in MB.
func peakRSSMB(pid string) (float64, error) {
	data, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}

// processCPU returns the CPU time, all threads together, that process pid
// (0 for this process) has used so far, from the kernel's per-process CPU
// clock. The scheduler accounts this clock with nanosecond resolution and,
// on a virtual machine with steal-time accounting, leaves out the time the
// host ran other guests, so it measures the program's own work where
// wall-clock time also measures the host's load.
func processCPU(pid int) (time.Duration, error) {
	clock := 2 // CLOCK_PROCESS_CPUTIME_ID
	if pid != 0 {
		clock = ^pid<<3 | 2 // the clock of process pid, with scheduler accounting
	}
	var ts syscall.Timespec
	if _, _, e := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, uintptr(clock), uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		return 0, fmt.Errorf("CPU clock of process %d: %w", pid, e)
	}
	return time.Duration(ts.Nano()), nil
}

var kernelSink uint64

// referenceKernel is kernelCPU's time on the reference host, a 2-CPU Xeon.
const referenceKernel = 5 * time.Millisecond

// speedExponent is how much more the workloads' CPU times move than the
// kernel's as a shared host's load changes: regressed over runs minutes
// apart, log CPU time against log kernel time has a slope of 1.4 to 2.1
// (r² 0.7 to 0.9) for every workload. The kernel stays in the L1 cache;
// the workloads lose more to the other guests' use of the caches.
const speedExponent = 2

// speedScale returns the factor that turns a run's CPU times into CPU
// times at the reference host's speed: (referenceKernel over the median
// of the kernel samples the run took between its calls) to the power
// speedExponent. The speed of a shared host drifts by tens of percent over
// minutes, and CPU time drifts with it; the scaled times of runs minutes
// apart agree where their raw CPU times do not.
func speedScale(kernelMS []float64) float64 {
	return math.Pow(ms(referenceKernel)/median(kernelMS), speedExponent)
}

// kernelCPU runs a fixed integer kernel that stays in the L1 cache and
// returns its CPU time: a sample of how fast the host runs code at the
// moment. It is timed on its own thread's CPU clock, so the garbage
// collector finishing a previous call's work on another thread does not
// count toward it.
func kernelCPU() time.Duration {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	c0 := threadCPU()
	x := uint64(88172645463325252)
	var a [256]uint64
	for i := 0; i < 2_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		a[x&255] += x
	}
	kernelSink += a[x&255]
	return threadCPU() - c0
}

// threadCPU returns the CPU time the calling thread has used so far; the
// caller keeps its goroutine on that thread.
func threadCPU() time.Duration {
	var ts syscall.Timespec
	if _, _, e := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, 3, uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		panic(e) // CLOCK_THREAD_CPUTIME_ID exists on every Linux
	}
	return time.Duration(ts.Nano())
}

// selfCPU returns the CPU time this process has used so far.
func selfCPU() time.Duration {
	d, err := processCPU(0)
	if err != nil {
		panic(err) // CLOCK_PROCESS_CPUTIME_ID exists on every Linux
	}
	return d
}

// passCount is the number of timed passes a run makes: as many passes of
// the workload's nominal length as fit in the run's seconds, and at least
// two. The nominal length is a constant measured on the reference host,
// so both sides of a comparison do the same work and sample the same
// number of latencies.
func passCount(smoke bool, seconds float64, nominal time.Duration) int {
	if smoke {
		return 1
	}
	return max(2, int(math.Round(seconds/nominal.Seconds())))
}

// slack is how much longer than its seconds the timed part of a run may
// take. On a host that slowed down more than that, a run does less work
// than passCount asks for, never none, rather than running past the time
// the benchmark's runs are allowed together.
const slack = 1.25

// overTime reports whether work that began at start has used its budget of
// seconds, once it has done at least one unit.
func overTime(start time.Time, budget float64, done int) bool {
	return done >= 1 && time.Since(start).Seconds() > budget
}
