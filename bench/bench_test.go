package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// inputs renders everything the generators draw from one seed.
func inputs(t *testing.T, seed int64) string {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	types := genHierarchy(r, 200)
	resolves, err := genResolves(r, resolvePool, 4000, clients)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, ty := range append(types, genFlat(r, "Flat", 50)...) {
		b.WriteString(ty.ToXML().String())
	}
	fmt.Fprint(&b, genQueries(r, types, 300), resolves)
	return b.String()
}

func TestSameSeedSameInputs(t *testing.T) {
	if inputs(t, 7) != inputs(t, 7) {
		t.Error("the same seed gave different inputs")
	}
	if inputs(t, 7) == inputs(t, 8) {
		t.Error("different seeds gave the same inputs")
	}
}

func TestResolveMix(t *testing.T) {
	ops, err := genResolves(rand.New(rand.NewSource(3)), resolvePool, 8000, clients)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	first := 0
	for i, op := range ops {
		if op.Type%clients != i%clients {
			t.Fatalf("op %d of client %d asks for type %d of another client", i, i%clients, op.Type)
		}
		if op.First == seen[op.Type] {
			t.Fatalf("op %d: First=%v but type %d seen=%v", i, op.First, op.Type, seen[op.Type])
		}
		seen[op.Type] = true
		if op.First {
			first++
		}
	}
	if first != len(ops)/firstTouchEvery {
		t.Errorf("%d first touches in %d ops, want exactly one in %d", first, len(ops), firstTouchEvery)
	}
	if _, err := genResolves(rand.New(rand.NewSource(3)), 10, 8000, clients); err == nil {
		t.Error("a pool too small for the first touches was accepted")
	}
	// The longest window the command line accepts fits the real pool.
	w, _ := findWorkload("resolve_grid")
	warm, full := w.ops(maxSeconds)
	if _, err := genResolves(rand.New(rand.NewSource(3)), resolvePool, warm+full, clients); err != nil {
		t.Errorf("-seconds %d: %v", maxSeconds, err)
	}
}

func TestQueryExpectations(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	types := genHierarchy(r, 100)
	for i, q := range genQueries(r, types, 30) {
		if i%3 == 0 && q.Want != 1 {
			t.Errorf("%s: want %d, a name matches exactly one type", q.Expr, q.Want)
		}
		if q.Want < 0 || q.Want > len(types) {
			t.Errorf("%s: impossible expectation %d", q.Expr, q.Want)
		}
	}
}

func TestPercentile(t *testing.T) {
	vals := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {50, 5}, {90, 9}, {99, 10}, {100, 10}} {
		if got := percentile(vals, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if percentile(nil, 50) != 0 {
		t.Error("percentile of nothing is not 0")
	}
	if got := latencyUS([]int64{0, 3000, 1000, 0, 2000}, 50); got != 2 {
		t.Errorf("latencyUS skipping ops not run = %v, want 2", got)
	}
}

func TestMedianSliceRate(t *testing.T) {
	// Ten ops: two per slice. Four slices take 1 s each (2 ops/s); the
	// third stalls for 10 s. The median slice does not see the stall.
	done := []int64{5e8, 1e9, 15e8, 2e9, 7e9, 12e9, 125e8, 13e9, 135e8, 14e9}
	if got := medianSliceRate(done, 5); got != 2 {
		t.Errorf("median slice rate = %v ops/s, want 2", got)
	}
	if got := medianSliceRate(done[:2], 5); got != 2 {
		t.Errorf("fewer ops than slices: %v ops/s, want 2 over the whole window", got)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "op", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "client.roundtrip", Start: 10, End: 60},
		{ID: 3, Parent: 1, Name: "client.roundtrip", Start: 40, End: 80},  // overlaps its sibling
		{ID: 4, Parent: 1, Name: "client.roundtrip", Start: 90, End: 130}, // outlives the op
		{ID: 5, Parent: 2, Name: "server.handler", Start: 20, End: 30},
	}
	want := map[int64]int64{1: 20, 2: 40, 3: 40, 4: 40, 5: 10}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("self times %v, want %v", got, want)
	}
	if got := medianSelfUS(spans)["client.roundtrip"]; got != 0.04 {
		t.Errorf("median round-trip self time %v us, want 0.04", got)
	}
}

func TestVerdict(t *testing.T) {
	// -compare applies the ledger bound, not the one the driver is told.
	lower := gated{metric{"p50_us", "us", "lower"}, 0.10, 0.25}
	higher := gated{metric{"ops_s", "ops/s", "higher"}, 0.10, 0.25}
	for _, c := range []struct {
		m    gated
		a, b []float64
		want string
	}{
		{lower, []float64{100, 101, 102}, []float64{103, 104, 105}, "same"},
		{lower, []float64{100, 101, 102}, []float64{120, 121, 122}, "worse"},
		{lower, []float64{100, 101, 102}, []float64{80, 81, 82}, "better"},
		{higher, []float64{100, 101, 102}, []float64{80, 81, 82}, "worse"},
		{higher, []float64{100, 101, 102}, []float64{120, 121, 122}, "better"},
		// Spread wider than the bound and overlapping runs: cannot tell.
		{lower, []float64{100, 130, 160}, []float64{120, 150, 180}, "unresolved"},
		// Wide spread, but every run of b is beyond every run of a.
		{lower, []float64{100, 130, 160}, []float64{200, 230, 260}, "worse"},
	} {
		if got := verdict(c.m, c.a, c.b); got != c.want {
			t.Errorf("verdict(%s, %v, %v) = %s, want %s", c.m.name, c.a, c.b, got, c.want)
		}
	}
}

func TestCompareFiles(t *testing.T) {
	write := func(name string, p50s ...float64) string {
		path := t.TempDir() + "/" + name
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		enc := json.NewEncoder(f)
		for _, p50 := range p50s {
			rec := record{Workload: "lookup_wire", result: result{Correct: true, Attempted: 1, Metrics: map[string]value{}}}
			for _, m := range endToEnd {
				rec.Metrics[m.name] = value{100, m.unit}
			}
			rec.Metrics["p50_us"] = value{p50, "us"}
			// A per-layer record and the contract line ride along, as in
			// the output of a one-workload run; both are skipped.
			layer := rec
			layer.Trace = 1
			for _, line := range []any{rec, layer, rec.result} {
				if err := enc.Encode(line); err != nil {
					t.Fatal(err)
				}
			}
		}
		return path
	}
	before := write("before.jsonl", 100, 101, 102)
	var out strings.Builder
	if worse, err := compareFiles(&out, before, write("same.jsonl", 101, 102, 103)); err != nil || worse {
		t.Errorf("equal runs: worse=%v err=%v\n%s", worse, err, out.String())
	}
	out.Reset()
	if worse, err := compareFiles(&out, before, write("slow.jsonl", 150, 151, 152)); err != nil || !worse {
		t.Errorf("slower runs: worse=%v err=%v\n%s", worse, err, out.String())
	}
	if !strings.Contains(out.String(), "worse") || strings.Count(out.String(), "\n") != 1+len(endToEnd) {
		t.Errorf("want a header and one row per end-to-end metric, one of them worse:\n%s", out.String())
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json, which the driver reads, equal
// to the tables the program reports from.
func TestBenchmarkJSON(t *testing.T) {
	type entry map[string]any
	want := map[string]any{
		"command":     []any{"bash", "bench/run.sh"},
		"paths":       []any{"bench"},
		"run_seconds": float64(runSeconds),
	}
	var ws, e2e, layers []any
	for _, w := range workloads {
		ws = append(ws, entry{"name": w.name, "why": w.why})
	}
	for _, m := range endToEnd {
		e2e = append(e2e, entry{"name": m.name, "unit": m.unit, "better": m.better, "bound": m.driver})
		if m.ledger > m.driver {
			t.Errorf("%s: the ledger bound %v is looser than the driver's %v", m.name, m.ledger, m.driver)
		}
	}
	for _, m := range perLayer {
		layers = append(layers, entry{"name": m.name, "unit": m.unit, "better": m.better})
	}
	want["workloads"], want["end_to_end"], want["per_layer"] = ws, e2e, layers
	wantText, err := json.MarshalIndent(want, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	text, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var got, wantBack any
	if err := json.Unmarshal(text, &got); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(wantText, &wantBack); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, wantBack) {
		t.Errorf("BENCHMARK.json differs from the program's tables; it should hold:\n%s", wantText)
	}
	for _, w := range workloads {
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters, has %d", w.name, len(w.why))
		}
	}
}

// TestSmoke runs the whole ledger at a tiny op count — layer probes, and
// for every workload the untraced pass, the traced pass and the post-run
// checks — into an output directory that does not exist yet, as on a fresh
// checkout, so the benchmark cannot rot unnoticed. Timings at this size
// mean nothing; answers do.
func TestSmoke(t *testing.T) {
	cfg := config{seed: 11, seconds: 0.01, trace: -1, out: filepath.Join(t.TempDir(), "out")}
	var out bytes.Buffer
	failed, err := run(&out, workloads, cfg, false)
	if err != nil || failed {
		t.Fatalf("failed=%v err=%v", failed, err)
	}
	var records []record
	for dec := json.NewDecoder(&out); dec.More(); {
		var rec record
		if err := dec.Decode(&rec); err != nil {
			t.Fatal(err)
		}
		records = append(records, rec)
	}
	if len(records) != 2*len(workloads) {
		t.Fatalf("%d records, want end-to-end and per-layer for each of %d workloads", len(records), len(workloads))
	}
	for i, w := range workloads {
		for trace, names := range [][]metric{endToEndMetrics(), perLayer} {
			rec := records[2*i+trace]
			if rec.Workload != w.name || rec.Trace != trace {
				t.Fatalf("record %d is %s trace %d, want %s trace %d", 2*i+trace, rec.Workload, rec.Trace, w.name, trace)
			}
			if !rec.Correct || rec.Failed != 0 || rec.Attempted < rec.Samples || rec.Samples == 0 {
				t.Errorf("%s trace %d: correct=%v failed=%d attempted=%d samples=%d",
					w.name, rec.Trace, rec.Correct, rec.Failed, rec.Attempted, rec.Samples)
			}
			if len(rec.Metrics) != len(names) {
				t.Errorf("%s trace %d: %d metrics, want %d", w.name, rec.Trace, len(rec.Metrics), len(names))
			}
			for _, m := range names {
				v, ok := rec.Metrics[m.name]
				if !ok || v.Unit != m.unit || (trace == 0 && !(v.Value > 0)) {
					t.Errorf("%s: %s = %+v (reported: %v), want a positive number of %s", w.name, m.name, v, ok, m.unit)
				}
			}
		}
		layers := records[2*i+1].Metrics
		// churn_local never touches the wire; resolve_grid does on a first
		// touch only, and a window this short may hold none.
		calls, self := layers["transport.calls_op"].Value, layers["transport.server_self_us"].Value
		switch w.name {
		case "churn_local":
			if calls != 0 || self != 0 {
				t.Errorf("churn_local made %v wire calls per op, want none", calls)
			}
		case "resolve_grid":
		default:
			if calls < 1 || !(self > 0) {
				t.Errorf("%s: %v wire calls per op, each %v us beyond its handler", w.name, calls, self)
			}
		}
		if layers["transport.retries_op"].Value != 0 || layers["transport.sheds"].Value != 0 {
			t.Errorf("%s: retries or sheds on a healthy grid", w.name)
		}
		checkTrace(t, filepath.Join(cfg.out, "trace-"+w.name+".json"), records[2*i+1].Samples)
	}
}

// checkTrace reads a trace file back: one op span per timed op, and every
// span's self time plus the part its children cover is its duration.
func checkTrace(t *testing.T, path string, ops int) {
	t.Helper()
	text, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var spans []span
	if err := json.Unmarshal(text, &spans); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	roots := 0
	for _, s := range spans {
		if s.Name == "op" {
			roots++
		}
		if s.End < s.Start {
			t.Errorf("%s: span %d ends before it starts", path, s.ID)
		}
	}
	if roots != ops {
		t.Errorf("%s: %d op spans for %d timed ops", path, roots, ops)
	}
	for id, self := range selfTimes(spans) {
		if self < 0 {
			t.Errorf("%s: span %d has negative self time %d", path, id, self)
		}
	}
}
