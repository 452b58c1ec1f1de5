package rrd

import (
	"encoding/json"
	"math"
	"testing"
	"time"
)

var epoch = time.Date(2005, 11, 12, 0, 0, 0, 0, time.UTC)

func mustCreate(t *testing.T, s *Store, def SeriesDef) {
	t.Helper()
	if err := s.Create(def); err != nil {
		t.Fatalf("Create(%s): %v", def.Name, err)
	}
}

func gaugeDef(name string, step time.Duration, archives ...ArchiveSpec) SeriesDef {
	return SeriesDef{Name: name, Kind: Gauge, Step: step, Archives: archives}
}

// TestConsolidationFunctions drives ten samples through one slot of each
// CF and checks the consolidated value against hand math.
func TestConsolidationFunctions(t *testing.T) {
	s := NewStore(time.Second)
	for _, cf := range []CF{Average, Min, Max, Last} {
		mustCreate(t, s, gaugeDef("m_"+cf.String(), time.Second, ArchiveSpec{CF: cf, Steps: 10, Rows: 4}))
	}
	// Samples 1..10 land in slot 0 of the 10s archives; one more sample at
	// t=10s closes that slot.
	for i := 1; i <= 10; i++ {
		ts := epoch.Add(time.Duration(i-1) * time.Second)
		for _, cf := range []CF{Average, Min, Max, Last} {
			if err := s.Update("m_"+cf.String(), ts, float64(i)); err != nil {
				t.Fatalf("update %d: %v", i, err)
			}
		}
	}
	for _, cf := range []CF{Average, Min, Max, Last} {
		if err := s.Update("m_"+cf.String(), epoch.Add(10*time.Second), 99); err != nil {
			t.Fatal(err)
		}
	}
	want := map[CF]float64{Average: 5.5, Min: 1, Max: 10, Last: 10}
	for cf, w := range want {
		res, err := s.Fetch("m_"+cf.String(), cf, epoch, epoch.Add(9*time.Second))
		if err != nil {
			t.Fatalf("%s: %v", cf, err)
		}
		if len(res.Points) == 0 || res.Points[0].V != w {
			t.Fatalf("%s slot = %+v, want %v", cf, res.Points, w)
		}
	}
}

// TestCounterRateAndReset checks delta/Δt derivation, the NaN seed point,
// and that a counter going backwards yields one unknown point.
func TestCounterRateAndReset(t *testing.T) {
	s := NewStore(time.Second)
	mustCreate(t, s, SeriesDef{
		Name: "c", Kind: Counter, Step: time.Second,
		Archives: []ArchiveSpec{{CF: Average, Steps: 1, Rows: 16}},
	})
	vals := []float64{100, 110, 130, 130, 20, 25} // +10/s, +20/s, flat, reset, +5/s
	for i, v := range vals {
		if err := s.Update("c", epoch.Add(time.Duration(i)*time.Second), v); err != nil {
			t.Fatalf("update %d: %v", i, err)
		}
	}
	res, err := s.Fetch("c", Average, epoch, epoch.Add(10*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{math.NaN(), 10, 20, 0, math.NaN(), 5}
	if len(res.Points) != len(want) {
		t.Fatalf("got %d points, want %d: %+v", len(res.Points), len(want), res.Points)
	}
	for i, w := range want {
		got := res.Points[i].V
		if math.IsNaN(w) != math.IsNaN(got) || (!math.IsNaN(w) && got != w) {
			t.Fatalf("point %d = %v, want %v", i, got, w)
		}
	}
}

// TestGapFillAndWraparound: a gap NaN-fills the skipped slots, and a gap
// longer than the whole ring wipes it.
func TestGapFillAndWraparound(t *testing.T) {
	s := NewStore(time.Second)
	mustCreate(t, s, gaugeDef("g", time.Second, ArchiveSpec{CF: Last, Steps: 1, Rows: 5}))
	up := func(sec int, v float64) {
		if err := s.Update("g", epoch.Add(time.Duration(sec)*time.Second), v); err != nil {
			t.Fatalf("update t=%d: %v", sec, err)
		}
	}
	up(0, 1)
	up(3, 4) // slots 1,2 unknown
	res, _ := s.Fetch("g", Last, epoch, epoch.Add(3*time.Second))
	if len(res.Points) != 4 || res.Points[0].V != 1 || !math.IsNaN(res.Points[1].V) || !math.IsNaN(res.Points[2].V) {
		t.Fatalf("gap fill wrong: %+v", res.Points)
	}
	if !res.Points[3].Live {
		t.Fatalf("head slot not marked live: %+v", res.Points[3])
	}
	// Wraparound: keep updating past the 5-row ring; old slots scroll off.
	for sec := 4; sec <= 20; sec++ {
		up(sec, float64(sec))
	}
	res, _ = s.Fetch("g", Last, epoch, epoch.Add(20*time.Second))
	if len(res.Points) != 5 {
		t.Fatalf("retention: got %d points, want 5", len(res.Points))
	}
	if res.Points[0].V != 16 || res.Points[4].V != 20 {
		t.Fatalf("ring contents wrong: %+v", res.Points)
	}
	// A gap wider than the ring wipes everything that came before.
	up(100, 7)
	res, _ = s.Fetch("g", Last, epoch, epoch.Add(100*time.Second))
	for _, p := range res.Points[:len(res.Points)-1] {
		if !math.IsNaN(p.V) {
			t.Fatalf("full-ring gap left stale value: %+v", res.Points)
		}
	}
}

// TestArchiveSelection: Fetch picks the finest archive that still covers
// the range start, falling back to the coarsest for deep history.
func TestArchiveSelection(t *testing.T) {
	s := NewStore(time.Second)
	mustCreate(t, s, gaugeDef("g", time.Second,
		ArchiveSpec{CF: Average, Steps: 1, Rows: 10},
		ArchiveSpec{CF: Average, Steps: 10, Rows: 100},
	))
	for sec := 0; sec <= 300; sec++ {
		_ = s.Update("g", epoch.Add(time.Duration(sec)*time.Second), 1)
	}
	recent, _ := s.Fetch("g", Average, epoch.Add(295*time.Second), epoch.Add(300*time.Second))
	if recent.Step != time.Second {
		t.Fatalf("recent fetch used step %v, want 1s", recent.Step)
	}
	deep, _ := s.Fetch("g", Average, epoch, epoch.Add(300*time.Second))
	if deep.Step != 10*time.Second {
		t.Fatalf("deep fetch used step %v, want 10s", deep.Step)
	}
	if _, err := s.Fetch("g", Max, epoch, epoch.Add(300*time.Second)); err != ErrNoArchive {
		t.Fatalf("Fetch with absent CF: %v, want ErrNoArchive", err)
	}
}

// TestUpdateRejections covers ErrPast (the idempotence hook), non-finite
// values, and unknown series.
func TestUpdateRejections(t *testing.T) {
	s := NewStore(time.Second)
	mustCreate(t, s, gaugeDef("g", time.Second, ArchiveSpec{CF: Average, Steps: 1, Rows: 4}))
	if err := s.Update("g", epoch.Add(5*time.Second), 1); err != nil {
		t.Fatal(err)
	}
	if err := s.Update("g", epoch.Add(5*time.Second), 2); err != ErrPast {
		t.Fatalf("same-ts update: %v, want ErrPast", err)
	}
	if err := s.Update("g", epoch.Add(4*time.Second), 2); err != ErrPast {
		t.Fatalf("past update: %v, want ErrPast", err)
	}
	if err := s.Update("g", epoch.Add(6*time.Second), math.NaN()); err != ErrBadValue {
		t.Fatalf("NaN update: %v, want ErrBadValue", err)
	}
	if err := s.Update("nope", epoch, 1); err != ErrNoSeries {
		t.Fatalf("unknown series: %v, want ErrNoSeries", err)
	}
}

// TestCreateIdempotence: re-creating with the same definition is a no-op,
// a different one is ErrExists.
func TestCreateIdempotence(t *testing.T) {
	s := NewStore(time.Second)
	def := gaugeDef("g", time.Second, ArchiveSpec{CF: Average, Steps: 1, Rows: 4})
	mustCreate(t, s, def)
	if err := s.Create(def); err != nil {
		t.Fatalf("identical re-create: %v", err)
	}
	def2 := def
	def2.Archives = []ArchiveSpec{{CF: Max, Steps: 1, Rows: 4}}
	if err := s.Create(def2); err != ErrExists {
		t.Fatalf("conflicting re-create: %v, want ErrExists", err)
	}
}

// TestMemoryBound is the acceptance property: the allocated ring slots
// are fixed at Create and do not grow with update volume.
func TestMemoryBound(t *testing.T) {
	s := NewStore(time.Second)
	mustCreate(t, s, gaugeDef("g", time.Second,
		ArchiveSpec{CF: Average, Steps: 1, Rows: 600},
		ArchiveSpec{CF: Average, Steps: 10, Rows: 600},
		ArchiveSpec{CF: Max, Steps: 10, Rows: 600},
	))
	// footprint counts the ring slots allocated across all series.
	footprint := func() int {
		n := 0
		for _, sr := range s.series {
			for _, a := range sr.archives {
				n += len(a.ring)
			}
		}
		return n
	}
	before := footprint()
	if before != 1800 {
		t.Fatalf("footprint after Create = %d, want 1800", before)
	}
	for i := 0; i < 200000; i++ {
		_ = s.Update("g", epoch.Add(time.Duration(i)*time.Second), float64(i))
	}
	if after := footprint(); after != before {
		t.Fatalf("footprint grew with updates: %d -> %d", before, after)
	}
	for _, d := range s.Dump() {
		for _, a := range d.Archives {
			if len(a.Ring) != a.Spec.Rows || cap(a.Ring) < a.Spec.Rows {
				t.Fatalf("ring of %s/%s resized: len=%d rows=%d", d.Def.Name, a.Spec.CF, len(a.Ring), a.Spec.Rows)
			}
		}
	}
}

// TestDumpRestoreRoundTrip: dump → JSON → restore preserves rings
// (including NaN slots), the counter seed, and open accumulators.
func TestDumpRestoreRoundTrip(t *testing.T) {
	s := NewStore(time.Second)
	mustCreate(t, s, SeriesDef{
		Name: "c", Kind: Counter, Step: time.Second,
		Archives: []ArchiveSpec{{CF: Average, Steps: 1, Rows: 8}, {CF: Max, Steps: 4, Rows: 8}},
	})
	total := 0.0
	for sec := 0; sec <= 9; sec++ {
		if sec == 5 {
			continue // leave an unknown slot in the middle
		}
		total += float64(sec)
		_ = s.Update("c", epoch.Add(time.Duration(sec)*time.Second), total)
	}
	dumps := s.Dump()
	blob, err := json.Marshal(dumps)
	if err != nil {
		t.Fatalf("dump marshal: %v", err)
	}
	var back []SeriesDump
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatalf("dump unmarshal: %v", err)
	}
	s2 := NewStore(time.Second)
	for _, d := range back {
		if err := s2.RestoreSeries(d); err != nil {
			t.Fatalf("restore: %v", err)
		}
	}
	r1, _ := s.Fetch("c", Average, epoch, epoch.Add(9*time.Second))
	r2, _ := s2.Fetch("c", Average, epoch, epoch.Add(9*time.Second))
	if len(r1.Points) != len(r2.Points) {
		t.Fatalf("point count changed: %d vs %d", len(r1.Points), len(r2.Points))
	}
	for i := range r1.Points {
		a, b := r1.Points[i].V, r2.Points[i].V
		if math.IsNaN(a) != math.IsNaN(b) || (!math.IsNaN(a) && a != b) {
			t.Fatalf("point %d: %v vs %v", i, a, b)
		}
	}
	// Counter continuity: the next delta on the restored store must use
	// the dumped lastVal, not restart from a seed NaN.
	if err := s2.Update("c", epoch.Add(10*time.Second), total+7); err != nil {
		t.Fatal(err)
	}
	res, _ := s2.Fetch("c", Average, epoch.Add(10*time.Second), epoch.Add(10*time.Second))
	if len(res.Points) != 1 || res.Points[0].V != 7 {
		t.Fatalf("post-restore rate = %+v, want 7/s", res.Points)
	}
}

// TestXportCoversAllArchives and clips to observed slots.
func TestXportCoversAllArchives(t *testing.T) {
	s := NewStore(time.Second)
	mustCreate(t, s, gaugeDef("g", time.Second,
		ArchiveSpec{CF: Average, Steps: 1, Rows: 600},
		ArchiveSpec{CF: Max, Steps: 10, Rows: 600},
	))
	for sec := 0; sec < 25; sec++ {
		_ = s.Update("g", epoch.Add(time.Duration(sec)*time.Second), float64(sec))
	}
	x, err := s.Xport("g")
	if err != nil {
		t.Fatal(err)
	}
	if len(x.Archives) != 2 {
		t.Fatalf("got %d archives, want 2", len(x.Archives))
	}
	if n := len(x.Archives[0].Points); n != 25 {
		t.Fatalf("fine archive exported %d points, want 25 (not a NaN-padded full ring)", n)
	}
	if n := len(x.Archives[1].Points); n != 3 {
		t.Fatalf("coarse archive exported %d points, want 3", n)
	}
}

// TestRingValuesJSON: NaN round-trips as null.
func TestRingValuesJSON(t *testing.T) {
	in := RingValues{1.5, math.NaN(), -2}
	blob, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	if string(blob) != "[1.5,null,-2]" {
		t.Fatalf("marshal = %s", blob)
	}
	var out RingValues
	if err := json.Unmarshal(blob, &out); err != nil {
		t.Fatal(err)
	}
	if len(out) != 3 || out[0] != 1.5 || !math.IsNaN(out[1]) || out[2] != -2 {
		t.Fatalf("unmarshal = %v", out)
	}
}

// TestRestoreSeriesValidatesLikeCreate: every definition Create refuses,
// RestoreSeries refuses too, as do dumps with negative timestamps or slot
// indices, so a damaged snapshot cannot install a series whose next
// Update divides by a zero slot width or indexes a ring out of range.
func TestRestoreSeriesValidatesLikeCreate(t *testing.T) {
	good := SeriesDef{Name: "g", Kind: Gauge, Step: time.Second,
		Archives: []ArchiveSpec{{CF: Average, Steps: 1, Rows: 4}}}
	badDefs := map[string]func(d *SeriesDef){
		"no name":       func(d *SeriesDef) { d.Name = "" },
		"no archives":   func(d *SeriesDef) { d.Archives = nil },
		"zero step":     func(d *SeriesDef) { d.Step = 0 },
		"negative step": func(d *SeriesDef) { d.Step = -time.Second },
		"zero steps":    func(d *SeriesDef) { d.Archives = []ArchiveSpec{{CF: Average, Steps: 0, Rows: 4}} },
		"zero rows":     func(d *SeriesDef) { d.Archives = []ArchiveSpec{{CF: Average, Steps: 1, Rows: 0}} },
		"rows past max": func(d *SeriesDef) { d.Archives = []ArchiveSpec{{CF: Average, Steps: 1, Rows: MaxRows + 1}} },
		"slot overflows": func(d *SeriesDef) {
			d.Archives = []ArchiveSpec{{CF: Average, Steps: math.MaxInt64 / int(time.Second) * 2, Rows: 4}}
		},
	}
	for name, mutate := range badDefs {
		def := good
		def.Archives = append([]ArchiveSpec(nil), good.Archives...)
		mutate(&def)
		s := NewStore(time.Second)
		if def.Step > 0 { // Create fills a non-positive step from the store
			if err := s.Create(def); err != ErrBadDef {
				t.Errorf("%s: Create = %v, want ErrBadDef", name, err)
			}
		}
		d := SeriesDump{Def: def, Archives: make([]ArchiveDump, len(def.Archives))}
		if err := s.RestoreSeries(d); err != ErrBadDef {
			t.Errorf("%s: RestoreSeries = %v, want ErrBadDef", name, err)
		}
		if err := s.Update(def.Name, epoch, 1); err != ErrNoSeries {
			t.Errorf("%s: Update after refused restore = %v, want ErrNoSeries", name, err)
		}
	}
	badDumps := map[string]func(d *SeriesDump){
		"negative last ts": func(d *SeriesDump) { d.LastTS = -1 },
		"negative cur":     func(d *SeriesDump) { d.Archives[0].Cur = -3 },
		"negative first":   func(d *SeriesDump) { d.Archives[0].First = -3 },
	}
	for name, mutate := range badDumps {
		d := SeriesDump{Def: good, Archives: []ArchiveDump{{Spec: good.Archives[0], Started: true}}}
		mutate(&d)
		if err := NewStore(time.Second).RestoreSeries(d); err != ErrBadDef {
			t.Errorf("%s: RestoreSeries = %v, want ErrBadDef", name, err)
		}
	}
	// The largest legal ring still restores and updates.
	big := SeriesDef{Name: "big", Step: time.Second, Archives: []ArchiveSpec{{CF: Max, Steps: 1, Rows: MaxRows}}}
	s := NewStore(time.Second)
	if err := s.RestoreSeries(SeriesDump{Def: big}); err != nil {
		t.Fatalf("restore at MaxRows: %v", err)
	}
	if err := s.Update("big", epoch, 1); err != nil {
		t.Fatal(err)
	}
}

// TestUpdateRejectsEpochAndBefore: the last-sample field uses zero for
// "none yet", so a timestamp at or before the Unix epoch is ErrPast
// rather than a negative slot index.
func TestUpdateRejectsEpochAndBefore(t *testing.T) {
	s := NewStore(time.Second)
	mustCreate(t, s, gaugeDef("g", time.Second, ArchiveSpec{CF: Average, Steps: 1, Rows: 4}))
	for _, ts := range []time.Time{time.Unix(0, 0), time.Date(1900, 1, 1, 0, 0, 0, 0, time.UTC)} {
		if err := s.Update("g", ts, 1); err != ErrPast {
			t.Fatalf("Update at %v = %v, want ErrPast", ts, err)
		}
	}
	if err := s.Update("g", time.Unix(0, 1), 1); err != nil {
		t.Fatalf("first nanosecond after the epoch: %v", err)
	}
}

// TestOverflowIsUnknown: finite samples whose derived value overflows
// float64 — a counter rate or a slot's consolidation sum — leave an
// unknown (NaN) slot, as rrdtool does, and the store still dumps to JSON
// mid-slot and after the slot closes.
func TestOverflowIsUnknown(t *testing.T) {
	const huge = 1.7e308
	s := NewStore(time.Second)
	mustCreate(t, s, SeriesDef{Name: "rate", Kind: Counter, Step: time.Second,
		Archives: []ArchiveSpec{{CF: Average, Steps: 1, Rows: 4}}})
	mustCreate(t, s, gaugeDef("sum", time.Second,
		ArchiveSpec{CF: Average, Steps: 10, Rows: 4}, ArchiveSpec{CF: Max, Steps: 10, Rows: 4}))
	for i, v := range []float64{-huge, huge, huge} { // the second step's rate is +Inf
		if err := s.Update("rate", epoch.Add(time.Duration(i)*time.Second), v); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ { // one slot whose sum is +Inf
		if err := s.Update("sum", epoch.Add(time.Duration(i)*time.Second), huge); err != nil {
			t.Fatal(err)
		}
	}
	slot := func(name string, cf CF, at time.Duration) float64 {
		t.Helper()
		res, err := s.Fetch(name, cf, epoch.Add(at), epoch.Add(at))
		if err != nil || len(res.Points) != 1 {
			t.Fatalf("Fetch(%s@%v) = %+v, %v", name, at, res, err)
		}
		return res.Points[0].V
	}
	dumps := func() {
		t.Helper()
		raw, err := json.Marshal(s.Dump())
		if err != nil {
			t.Fatalf("Dump does not marshal: %v", err)
		}
		var back []SeriesDump
		if err := json.Unmarshal(raw, &back); err != nil {
			t.Fatal(err)
		}
		r := NewStore(time.Second)
		for _, d := range back {
			if err := r.RestoreSeries(d); err != nil {
				t.Fatal(err)
			}
		}
		if v, _ := r.Fetch("sum", Average, epoch, epoch); !math.IsNaN(v.Points[0].V) {
			t.Fatalf("restored overflowed slot = %v, want NaN", v.Points[0].V)
		}
	}
	if v := slot("rate", Average, time.Second); !math.IsNaN(v) {
		t.Fatalf("overflowed rate = %v, want NaN", v)
	}
	dumps() // the sum slot is still open
	if err := s.Update("sum", epoch.Add(10*time.Second), 1); err != nil {
		t.Fatal(err)
	}
	if v := slot("sum", Average, 0); !math.IsNaN(v) {
		t.Fatalf("overflowed average = %v, want NaN", v)
	}
	if v := slot("sum", Max, 0); v != huge {
		t.Fatalf("max of the overflowed slot = %v, want %v", v, huge)
	}
	dumps()
}
