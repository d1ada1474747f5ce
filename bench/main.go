// Command bench is the repository's benchmark: six named workloads, four
// end-to-end metrics measured with tracing off, and a per-layer tier
// measured in a second, traced run. Every layer is timed from outside, by
// calling its public functions from this package; see README.md.
//
// Usage (from the repository root):
//
//	go run -C bench amrtools/bench                       # all workloads, end-to-end metrics
//	go run -C bench amrtools/bench -trace                # all workloads, per-layer metrics
//	go run -C bench amrtools/bench -workload scale_4k    # one workload
//	go run -C bench amrtools/bench -selfcheck            # two full sets, compared
//
// The last line of standard output of a single-workload run is one JSON
// object: {"correct", "attempted", "failed", "metrics"}. The exit status is
// non-zero when any check failed.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

func main() {
	os.Exit(run(env{stdout: os.Stdout, stderr: os.Stderr, self: execSelf}, os.Args[1:]))
}

// env is what run needs from its surroundings.
type env struct {
	stdout, stderr io.Writer
	// self runs this program again with args and returns its exit status:
	// in a fresh process from main, in-process under test.
	self func(args []string, stdout, stderr io.Writer) int
}

// execSelf starts the running binary as a child process and waits for it.
func execSelf(args []string, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	cmd := exec.Command(exe, args...)
	cmd.Stdout, cmd.Stderr = stdout, stderr
	if err := cmd.Run(); err != nil {
		if ee, ok := err.(*exec.ExitError); ok {
			return ee.ExitCode()
		}
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	return 0
}

type config struct {
	workload   string
	seed       uint64
	seconds    float64
	reps       int
	trace      bool
	out        string
	small      bool
	selfcheck  bool
	setupChild bool
}

// setupProcs is how many fresh processes an untraced run sets the workload
// up in; setup_s is their median. A fresh process pays every one-time cost
// (lazy initialisation, heap growth, cold caches) that a later repetition in
// the measuring process would not.
const setupProcs = 3

// normalizeTrace lets -trace be given bare, as "-trace 0|1" (how the
// benchmark driver passes it) or as "-trace=0|1"; the flag package only
// accepts the last form for a boolean.
func normalizeTrace(args []string) []string {
	var out []string
	for i := 0; i < len(args); i++ {
		a := args[i]
		if (a == "-trace" || a == "--trace") && i+1 < len(args) && (args[i+1] == "0" || args[i+1] == "1") {
			out = append(out, "-trace="+args[i+1])
			i++
			continue
		}
		out = append(out, a)
	}
	return out
}

func run(e env, args []string) int {
	var cfg config
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(e.stderr)
	fs.StringVar(&cfg.workload, "workload", "", "run one workload (default: all six, each in its own process)")
	fs.Uint64Var(&cfg.seed, "seed", 1, "seed every input is generated from")
	fs.Float64Var(&cfg.seconds, "seconds", 10, "measure for this many seconds")
	fs.IntVar(&cfg.reps, "reps", 0, "measure exactly this many repetitions instead of -seconds")
	fs.BoolVar(&cfg.trace, "trace", false, "traced run: record spans and report the per-layer metrics")
	fs.StringVar(&cfg.out, "out", ".bench_out", "directory for result and span files (empty: write none)")
	fs.BoolVar(&cfg.small, "small", false, "shrunken smoke run; numbers are not comparable with a full run")
	fs.BoolVar(&cfg.selfcheck, "selfcheck", false, "run two full sets and compare them against the bounds in BENCHMARK.json")
	fs.BoolVar(&cfg.setupChild, "setup-child", false, "internal: set the workload up once and exit")
	if err := fs.Parse(normalizeTrace(args)); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(e.stderr, "bench: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	// The load comes from one process with no more threads than cores.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 4))

	if cfg.selfcheck {
		return selfcheck(e, cfg)
	}
	if cfg.workload == "" {
		return runAll(e, cfg)
	}
	w := findWorkload(cfg.workload)
	if w == nil {
		fmt.Fprintf(e.stderr, "bench: unknown workload %q\n", cfg.workload)
		return 2
	}
	if cfg.setupChild {
		r := w.build(cfg.seed, cfg.small)
		o := r.run(nil)
		r.check(o)
		if o.failed > 0 {
			fmt.Fprintln(e.stderr, "bench: setup:", strings.Join(o.fails, "; "))
			return 1
		}
		return 0
	}
	return measure(e, cfg, w)
}

// childArgs are the flags a child process inherits.
func (cfg config) childArgs(workload string) []string {
	args := []string{
		"-workload", workload,
		"-seed", fmt.Sprint(cfg.seed),
		"-seconds", fmt.Sprint(cfg.seconds),
		"-reps", fmt.Sprint(cfg.reps),
		"-out", cfg.out,
	}
	if cfg.small {
		args = append(args, "-small")
	}
	return args
}

func traceArg(on bool) string {
	if on {
		return "-trace=1"
	}
	return "-trace=0"
}

// runAll runs every workload in its own process, so no workload inherits
// another's heap, and passes their output through.
func runAll(e env, cfg config) int {
	status := 0
	for _, w := range workloads {
		if code := e.self(append(cfg.childArgs(w.name), traceArg(cfg.trace)), e.stdout, e.stderr); code != 0 {
			status = 1
		}
	}
	return status
}

// host identifies the machine and build a result came from.
type host struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
}

func fingerprint() host {
	h := host{
		CPU: "unknown", NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go: runtime.Version(), Commit: "unknown",
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		h.Commit = strings.TrimSpace(string(out))
	}
	return h
}

// result is one run of one workload: what the result file holds.
type result struct {
	Workload string `json:"workload"`
	Trace    bool   `json:"trace"`
	Host     host   `json:"host"`
	Seed     uint64 `json:"seed"`
	Small    bool   `json:"small,omitempty"`
	Reps     int    `json:"reps"`
	// ProbeSeconds is how long the fixed per-layer probes of a traced run
	// took; the workload's own repetitions fill the rest of -seconds.
	ProbeSeconds float64            `json:"probe_seconds,omitempty"`
	Digest       string             `json:"digest"`
	Attempted    int                `json:"attempted"`
	Failed       int                `json:"failed"`
	Fails        []string           `json:"fails,omitempty"`
	Metrics      map[string]summary `json:"metrics"`
}

func (r *result) absorb(o *repOut) {
	r.Attempted += o.attempted
	r.Failed += o.failed
	r.Fails = append(r.Fails, o.fails...)
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%f kB", &kb); err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// timedRep runs one repetition from a collected heap and checks it. Wall
// and CPU cover run only; check is outside the timing.
func timedRep(r *runner, sp *span) (o *repOut, wall, cpu float64) {
	runtime.GC()
	c0, t0 := cpuSeconds(), time.Now()
	o = r.run(sp)
	wall, cpu = time.Since(t0).Seconds(), cpuSeconds()-c0
	sp.done()
	r.check(o)
	return o, wall, cpu
}

// budget decides when the measuring loop stops: after cfg.reps repetitions
// when set, otherwise once cfg.seconds have passed (and at least one
// repetition ran).
type budget struct {
	cfg   config
	start time.Time
}

func (b budget) more(done int) bool {
	if b.cfg.reps > 0 {
		return done < b.cfg.reps
	}
	return done == 0 || time.Since(b.start).Seconds() < b.cfg.seconds
}

func measure(e env, cfg config, w *workload) int {
	res := &result{Workload: w.name, Trace: cfg.trace, Host: fingerprint(), Seed: cfg.seed, Small: cfg.small}
	s := samples{}
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
		measureTraced(cfg, w, res, s, tr)
	} else {
		measureUntraced(e, cfg, w, res, s)
	}

	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	var errs []string
	res.Metrics, errs = summarize(defs, s)
	res.Attempted += len(errs)
	res.Failed += len(errs)
	res.Fails = append(res.Fails, errs...)

	mode := "untraced: end-to-end metrics"
	if cfg.trace {
		mode = "traced: per-layer metrics"
	}
	fmt.Fprintf(e.stdout, "== %s (%s) seed=%d reps=%d  %s, nproc=%d GOMAXPROCS=%d %s commit=%s\n",
		w.name, mode, cfg.seed, res.Reps, res.Host.CPU, res.Host.NProc, res.Host.GOMAXPROCS, res.Host.Go, res.Host.Commit)
	fmt.Fprintln(e.stdout, "  times are host time unless the unit is sim_s; colfile I/O is in memory; fabric and ranks are simulated")
	printSummaries(e.stdout, defs, res.Metrics)
	if tr != nil {
		fmt.Fprintf(e.stdout, "  the per-layer probes took %.1f s\n", res.ProbeSeconds)
		printLayerSelf(e.stdout, tr)
	}
	fmt.Fprintf(e.stdout, "  digest %s\n  attempted %d failed %d\n", res.Digest, res.Attempted, res.Failed)
	for _, f := range res.Fails {
		fmt.Fprintln(e.stdout, "  FAIL:", f)
	}
	if cfg.out != "" {
		if err := writeFiles(cfg.out, res, tr); err != nil {
			fmt.Fprintln(e.stderr, "bench:", err)
			return 2
		}
	}

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: res.Failed == 0, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]value{}}
	for name, m := range res.Metrics {
		line.Metrics[name] = value{m.Median, m.Unit}
	}
	out, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(e.stderr, "bench:", err)
		return 2
	}
	fmt.Fprintln(e.stdout, string(out))
	if res.Failed > 0 {
		return 1
	}
	return 0
}

// measureUntraced produces the end-to-end metrics.
func measureUntraced(e env, cfg config, w *workload, res *result, s samples) {
	for i := 0; i < setupProcs && e.self != nil; i++ {
		args := append(cfg.childArgs(w.name), "-setup-child")
		t0 := time.Now()
		code := e.self(args, io.Discard, e.stderr)
		s.add("setup_s", time.Since(t0).Seconds())
		res.Attempted++
		if code != 0 {
			res.Failed++
			res.Fails = append(res.Fails, fmt.Sprintf("setup process exited %d", code))
		}
	}
	t0 := time.Now()
	r := w.build(cfg.seed, cfg.small)
	warm, _, _ := timedRep(r, nil)
	if len(s["setup_s"]) == 0 {
		s.add("setup_s", time.Since(t0).Seconds())
	}
	res.absorb(warm)
	res.Digest = warm.digest

	for b := (budget{cfg, time.Now()}); b.more(res.Reps); res.Reps++ {
		o, wall, cpu := timedRep(r, nil)
		s.add("wall_s", wall)
		s.add("cpu_s", cpu)
		o.op(sameDigest(o.digest, res.Digest), "digest of repetition")
		res.absorb(o)
	}
	rss, err := peakRSSMB()
	if err != nil {
		res.Fails = append(res.Fails, err.Error())
		res.Failed++
	}
	res.Attempted++
	s.add("peak_rss_mb", rss)
	if r.verify != nil {
		res.absorb(r.verify(res.Digest))
	}
}

// measureTraced produces the per-layer metrics: the fixed probes, then
// untraced and traced repetitions of the workload in alternating order.
func measureTraced(cfg config, w *workload, res *result, s samples, tr *tracer) {
	r := w.build(cfg.seed, cfg.small)
	warm, _, _ := timedRep(r, nil)
	res.absorb(warm)
	res.Digest = warm.digest

	b := budget{cfg, time.Now()}
	p := &prober{tr: tr, s: s, seed: cfg.seed, small: cfg.small}
	p.all()
	res.ProbeSeconds = time.Since(b.start).Seconds()
	res.Attempted++
	if len(p.fails) > 0 {
		res.Failed++
		res.Fails = append(res.Fails, p.fails...)
	}

	var plain, traced []float64
	for ; b.more(res.Reps); res.Reps++ {
		for k := 0; k < 2; k++ {
			withSpans := (k == 0) == (res.Reps%2 == 0)
			var sp *span
			if withSpans {
				sp = tr.root(res.Reps, "bench", w.name)
			}
			o, wall, _ := timedRep(r, sp)
			o.op(sameDigest(o.digest, res.Digest), "digest of repetition")
			res.absorb(o)
			if withSpans {
				traced = append(traced, wall)
				if o.drv.runs > 0 {
					o.drv.record(s)
				}
			} else {
				plain = append(plain, wall)
			}
		}
	}
	s.add("bench.trace_overhead_pct", 100*(median(traced)-median(plain))/median(plain))
	if len(s["driver.events"]) == 0 {
		// No DES in this workload: the driver.* rows come from one cell of
		// the sedov_sweep campaign, so they are never empty.
		driverCell(p, cfg)
	}
}

// driverCell runs the 128-rank CPLX50 cell of sedov_sweep twice under
// spans and records its driver.* metrics.
func driverCell(p *prober, cfg config) {
	cell := buildSweep(cfg.seed, cfg.small)
	for i := 0; i < 2; i++ {
		p.timed("bench", "driver cell", func(sp *span) {
			o := cell.run(sp)
			cell.check(o)
			if o.failed > 0 {
				p.fails = append(p.fails, o.fails...)
				return
			}
			o.drv.record(p.s)
		})
	}
}

// printLayerSelf prints where the traced repetitions' time went: self time
// per layer, summed over the workload's own spans (probe spans excluded).
func printLayerSelf(w io.Writer, tr *tracer) {
	self := layerSelf(tr.records(), func(s spanRec) bool { return s.rep >= 0 })
	var total time.Duration
	layers := make([]string, 0, len(self))
	for layer, d := range self {
		total += d
		layers = append(layers, layer)
	}
	sort.Strings(layers)
	fmt.Fprintln(w, "  self time by layer over the traced repetitions (span minus child spans):")
	for _, layer := range layers {
		fmt.Fprintf(w, "    %-10s %10.3f ms  %5.1f %%\n", layer, ms(self[layer]), 100*float64(self[layer])/float64(total))
	}
}

// writeFiles stores the result (and the spans of a traced run) under dir.
func writeFiles(dir string, res *result, tr *tracer) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	kind := "untraced"
	if res.Trace {
		kind = "traced"
	}
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-%s.json", res.Workload, kind)), data, 0o644); err != nil {
		return err
	}
	if tr == nil {
		return nil
	}
	var buf bytes.Buffer
	if err := tr.writeCSV(&buf); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, res.Workload+"-spans.csv"), buf.Bytes(), 0o644)
}
