// Command bench is the GLARE perf ledger: five closed-loop workloads over
// real in-process grids on loopback HTTP, every answer verified, reported
// as end-to-end metrics (tracing off) and per-layer metrics (a traced pass
// plus direct probes of each layer's public functions). See README.md.
//
//	go run ./bench -seed 1                        # whole ledger, all workloads
//	go run ./bench -workload lookup_wire -trace 0 # one workload, end-to-end only
//	go run ./bench -compare before.jsonl after.jsonl
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"text/tabwriter"
	"time"
)

// metric names one reported number.
type metric struct {
	name   string
	unit   string
	better string // "lower" or "higher"
}

// gated is an end-to-end metric with its two bounds, each the share of the
// baseline's median by which the metric may worsen before that counts as a
// regression. ledger is the issue's table: what -compare applies, and what
// later changes are judged against; a comparison too noisy to resolve a
// move of that size comes out "unresolved", not "same". driver is what
// BENCHMARK.json declares to the builder's driver, which refuses a
// benchmark outright when the quartile spread of ten runs exceeds the
// bound: on the shared sandbox that spread reaches 0.16 to 0.25 on every
// timing for minutes at a time (README.md, "Baseline and spread"), so the
// timings declare the widest bound the contract allows. The counts repeat,
// and have one bound.
type gated struct {
	metric
	ledger float64
	driver float64
}

// endToEnd is what a user of the grid sees, measured with tracing off.
// BENCHMARK.json repeats this table with the driver bounds; a test keeps
// the two equal.
var endToEnd = []gated{
	{metric{"ops_s", "ops/s", "higher"}, 0.10, 0.25},
	{metric{"p50_us", "us", "lower"}, 0.10, 0.25},
	{metric{"p99_us", "us", "lower"}, 0.15, 0.25},
	{metric{"cpu_us_op", "us", "lower"}, 0.10, 0.25},
	{metric{"allocs_op", "count", "lower"}, 0.02, 0.02},
	{metric{"bytes_op", "B", "lower"}, 0.02, 0.02},
	{metric{"heap_mb", "MiB", "lower"}, 0.10, 0.10},
	{metric{"setup_s", "s", "lower"}, 0.25, 0.25},
}

func endToEndMetrics() []metric {
	out := make([]metric, len(endToEnd))
	for i, g := range endToEnd {
		out[i] = g.metric
	}
	return out
}

// value is one measured metric as printed.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the contract line: exactly these keys, the last line of
// standard output when one workload is run.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// record is a result labelled with what produced it: one line per
// workload and kind of metric, the input of -compare.
type record struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    int    `json:"trace"`
	Samples  int    `json:"samples"`
	result
}

// config is the command line.
type config struct {
	seed    int64
	seconds float64
	trace   int // 0 end-to-end only, 1 per-layer only, -1 both
	out     string
}

// runSeconds is the default -seconds, and BENCHMARK.json's run_seconds: the
// window length the workloads' rates and the bounds above were sized for.
const runSeconds = 10

// maxSeconds is the longest window the workloads can serve: resolve_grid's
// first touches (one op in 20) use up its pool of 2000 types in 15.7 s.
const maxSeconds = 15

// setups is how many times an end-to-end run builds its workload to report
// setup_s, the median build. The builder's contract asks for several:
// builds take 10 to 100 ms, and a single one varies by 5 to 30 %.
const setups = 5

// passResult is one pass's raw outcome.
type passResult struct {
	m         measurement
	inst      *instance
	electMS   float64
	counts    map[string]float64 // program counter deltas over the window
	wireBytes float64
	selfUS    map[string]float64 // traced pass: median self time per span name, µs
	trips     float64            // traced pass: client.roundtrip spans…
	tripsUS   float64            // …and their total duration, µs
	attempted int
	failed    int
	firstErr  error
}

// ops is how many warm-up and timed ops a full window of `seconds` holds.
func (w workload) ops(seconds float64) (warm, full int) {
	full = max(int(float64(w.rate)*seconds), 10*clients)
	return max(full/50, 2*clients), full
}

// setUp builds a workload in a fresh scratch directory under cfg.out:
// grid, election, pre-registration and inputs. Inputs are generated for a
// full window of cfg.seconds whatever the length of the pass, so every pass
// of a run starts its window from the same state — down to the heap the
// inputs occupy, which sets how often the collector runs while the
// registries are still small. It returns how long the build took.
func setUp(w workload, cfg config, traced bool) (*instance, *pass, float64, error) {
	dir, err := os.MkdirTemp(cfg.out, "data-")
	if err != nil {
		return nil, nil, 0, err
	}
	p := &pass{dir: dir}
	if traced {
		p.tr = newTracer()
	}
	warm, full := w.ops(cfg.seconds)
	// Collect what earlier builds and passes left now, so that this build
	// does not pay for it at a moment of the collector's choosing.
	runtime.GC()
	start := time.Now()
	inst, err := w.build(rand.New(rand.NewSource(cfg.seed)), warm+full, p)
	if err != nil {
		os.RemoveAll(dir)
		return nil, nil, 0, fmt.Errorf("%s: setup: %w", w.name, err)
	}
	return inst, p, time.Since(start).Seconds(), nil
}

func tearDown(inst *instance, p *pass) {
	inst.grid.Close()
	os.RemoveAll(p.dir)
}

// setupSeconds is setup_s: the median of `setups` builds.
func setupSeconds(w workload, cfg config) (float64, error) {
	times := make([]float64, setups)
	for i := range times {
		inst, p, seconds, err := setUp(w, cfg, false)
		if err != nil {
			return 0, err
		}
		tearDown(inst, p)
		times[i] = seconds
	}
	return percentile(times, 50), nil
}

// runPass builds a workload, warms it up (2 % of a full window), runs a
// timed window of nominally `seconds` on it, makes the post-run checks and
// tears it down.
func runPass(w workload, cfg config, seconds float64, traced bool) (passResult, error) {
	warm, full := w.ops(cfg.seconds)
	_, ops := w.ops(seconds)
	ops = min(ops, full)
	inst, p, _, err := setUp(w, cfg, traced)
	if err != nil {
		return passResult{}, err
	}
	defer tearDown(inst, p)

	var f failures
	warmUp(warm, inst.do, &f)
	p.tr.reset() // spans of the build, the election and the warm-up
	before := counters(inst.grid)
	p.wireBytes.Store(0)
	// A machine much slower than the one the rates were sized on stops at
	// one and a half times the nominal window instead of overrunning the
	// run-time budget.
	limit := time.Duration(1.5 * float64(ops) / float64(w.rate) * float64(time.Second))
	m := runTimed(warm, warm+ops, limit, inst.do, &f)
	after := counters(inst.grid)
	spans := p.tr.reset()
	res := passResult{m: m, selfUS: medianSelfUS(spans), inst: inst, electMS: p.electMS,
		wireBytes: float64(p.wireBytes.Load()), attempted: warm + m.ops,
		counts: map[string]float64{}}
	for name, v := range after {
		res.counts[name] = v - before[name]
	}
	for _, s := range spans {
		if s.Name == "client.roundtrip" {
			res.trips++
			res.tripsUS += float64(s.End-s.Start) / 1e3
		}
	}
	if inst.post != nil {
		checked, errs := inst.post()
		res.attempted += checked
		for _, err := range errs {
			f.add(err)
		}
	}
	res.failed, res.firstErr = f.n, f.first
	if traced {
		if err := writeSpans(filepath.Join(cfg.out, "trace-"+w.name+".json"), spans); err != nil {
			return res, err
		}
	}
	return res, nil
}

func (r passResult) endToEnd(setupS float64) map[string]value {
	return map[string]value{
		"ops_s":     {r.m.rate(r.m.ops), "ops/s"},
		"p50_us":    {latencyUS(r.m.latencies, 50), "us"},
		"p99_us":    {latencyUS(r.m.latencies, 99), "us"},
		"cpu_us_op": {r.m.cpuPerOp, "us"},
		"allocs_op": {r.m.allocs, "count"},
		"bytes_op":  {r.m.bytes, "B"},
		"heap_mb":   {r.m.heapMB, "MiB"},
		"setup_s":   {setupS, "s"},
	}
}

// runWorkload runs the passes cfg.trace asks for and returns one record
// per kind of metric: end-to-end (trace 0) and per-layer (trace 1).
// End-to-end numbers always come from a full-length untraced pass. The
// traced pass is half as long; the per-layer record needs an untraced pass
// too, as the base of trace.overhead_ratio, and when no end-to-end record
// is asked for that one is halved as well.
func runWorkload(w workload, cfg config, probes map[string]value) ([]record, error) {
	plainSeconds := cfg.seconds
	if cfg.trace == 1 {
		plainSeconds = cfg.seconds / 2
	}
	plain, err := runPass(w, cfg, plainSeconds, false)
	if err != nil {
		return nil, err
	}
	var out []record
	if cfg.trace != 1 {
		setupS, err := setupSeconds(w, cfg)
		if err != nil {
			return nil, err
		}
		rec := record{w.name, cfg.seed, 0, plain.m.ops,
			result{plain.failed == 0, plain.attempted, plain.failed, plain.endToEnd(setupS)}}
		report(w.name+" (end to end)", plain, rec, endToEndMetrics())
		out = append(out, rec)
	}
	if cfg.trace != 0 {
		traced, err := runPass(w, cfg, cfg.seconds/2, true)
		if err != nil {
			return nil, err
		}
		counts := layerCounts(traced, plain)
		metrics := make(map[string]value, len(perLayer))
		for _, m := range perLayer {
			v, ok := counts[m.name]
			if !ok {
				if v, ok = probes[m.name]; !ok {
					return nil, fmt.Errorf("%s: per-layer metric %s was not measured", w.name, m.name)
				}
			}
			metrics[m.name] = v
		}
		rec := record{w.name, cfg.seed, 1, traced.m.ops,
			result{traced.failed == 0 && plain.failed == 0, traced.attempted + plain.attempted,
				traced.failed + plain.failed, metrics}}
		report(w.name+" (per layer)", traced, rec, perLayer)
		out = append(out, rec)
	}
	return out, nil
}

// report prints one record as a table on standard error.
func report(title string, r passResult, rec record, order []metric) {
	fmt.Fprintf(os.Stderr, "\n== %s: %d timed ops (samples), %d attempted, %d failed, fail_ratio %.3g\n",
		title, r.m.ops, rec.Attempted, rec.Failed, float64(rec.Failed)/float64(rec.Attempted))
	if r.firstErr != nil {
		fmt.Fprintf(os.Stderr, "   first failure: %v\n", r.firstErr)
	}
	if rec.Trace == 1 {
		fmt.Fprintf(os.Stderr, "   median self time per span name, us: %v\n", r.selfUS)
	}
	tw := tabwriter.NewWriter(os.Stderr, 0, 0, 2, ' ', 0)
	for _, m := range order {
		fmt.Fprintf(tw, "   %s\t%.4g\t%s\n", m.name, rec.Metrics[m.name].Value, m.unit)
	}
	tw.Flush()
}

func main() {
	var (
		cfg        config
		only       string
		cpuProfile string
		memProfile string
		compare    bool
	)
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	flag.Float64Var(&cfg.seconds, "seconds", runSeconds, "nominal length of one timed window; sizes the fixed op count of every workload")
	flag.IntVar(&cfg.trace, "trace", -1, "0: end-to-end metrics only; 1: per-layer metrics only; -1: both")
	flag.StringVar(&cfg.out, "out", "bench/out", "directory for trace files and durable sites' scratch data")
	flag.StringVar(&only, "workload", "", "run one workload and end with the contract line (default: all five)")
	flag.StringVar(&cpuProfile, "cpuprofile", "", "write a CPU profile of the run to this file")
	flag.StringVar(&memProfile, "memprofile", "", "write a heap profile at the end of the run to this file")
	flag.BoolVar(&compare, "compare", false, "compare two files of records: bench -compare before.jsonl after.jsonl")
	flag.Parse()

	if compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare needs two files of records, got %d", flag.NArg()))
		}
		worse, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if worse {
			os.Exit(1)
		}
		return
	}

	selected := workloads
	if only != "" {
		w, ok := findWorkload(only)
		if !ok {
			fatal(fmt.Errorf("unknown workload %q", only))
		}
		selected = []workload{w}
	}
	if cfg.seconds <= 0 || cfg.seconds > maxSeconds || cfg.trace < -1 || cfg.trace > 1 {
		fatal(fmt.Errorf("need 0 < -seconds <= %d and -trace in {-1, 0, 1}", maxSeconds))
	}
	if cpuProfile != "" {
		f, err := os.Create(cpuProfile)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
	}
	failed, err := run(os.Stdout, selected, cfg, only != "")
	pprof.StopCPUProfile()
	if err == nil && memProfile != "" {
		err = writeHeapProfile(memProfile)
	}
	if err != nil {
		fatal(err)
	}
	if failed {
		os.Exit(1)
	}
}

// run measures the selected workloads and writes their records to out; with
// contractLine the last thing printed is the last record's bare result.
// It reports whether any op or check failed.
func run(out io.Writer, selected []workload, cfg config, contractLine bool) (failed bool, err error) {
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return false, err
	}
	fmt.Fprintf(os.Stderr, "glare bench: seed %d, %g s windows, %d closed-loop clients, GOMAXPROCS %d, WAL fsync=interval\n",
		cfg.seed, cfg.seconds, clients, runtime.GOMAXPROCS(0))
	var probes map[string]value
	if cfg.trace != 0 {
		if probes, err = layerProbes(cfg); err != nil {
			return false, err
		}
	}
	enc := json.NewEncoder(out)
	var last record
	for _, w := range selected {
		records, err := runWorkload(w, cfg, probes)
		if err != nil {
			return false, err
		}
		for _, rec := range records {
			if err := enc.Encode(rec); err != nil {
				return false, err
			}
			failed = failed || !rec.Correct
			last = rec
		}
	}
	if contractLine {
		if err := enc.Encode(last.result); err != nil {
			return false, err
		}
	}
	return failed, nil
}

func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}
