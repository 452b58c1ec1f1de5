package store

import (
	"math"
	"testing"
	"time"

	"glare/internal/rrd"
)

var histEpoch = time.Date(2005, 11, 12, 0, 0, 0, 0, time.UTC)

func histDef(name string) rrd.SeriesDef {
	return rrd.SeriesDef{
		Name: name, Kind: rrd.Counter, Step: time.Second,
		Archives: []rrd.ArchiveSpec{
			{CF: rrd.Average, Steps: 1, Rows: 60},
			{CF: rrd.Average, Steps: 10, Rows: 60},
		},
	}
}

// TestHistoryJournalRecovery: series creates and sample batches journaled
// through the store's history methods survive a close/reopen, and the recovered rrd store
// serves the same consolidated points.
func TestHistoryJournalRecovery(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, Options{Dir: dir})
	s.CreateSeries(histDef("glare_fails_total"))
	for i := 0; i <= 20; i++ {
		s.AppendBatch(rrd.Batch{
			TS:      histEpoch.Add(time.Duration(i) * time.Second),
			Samples: []rrd.Sample{{Name: "glare_fails_total", Value: float64(i * 2)}},
		})
	}
	s.Close()

	re := mustOpen(t, Options{Dir: dir})
	defer re.Close()
	hist := re.State().History
	if hist == nil {
		t.Fatal("recovered state has no history store")
	}
	res, err := hist.Fetch("glare_fails_total", rrd.Average, histEpoch, histEpoch.Add(20*time.Second))
	if err != nil {
		t.Fatalf("fetch on recovered history: %v", err)
	}
	// 21 slots: the NaN seed point then a steady 2/s rate.
	if len(res.Points) != 21 {
		t.Fatalf("got %d points, want 21", len(res.Points))
	}
	for _, p := range res.Points[1:] {
		if p.V != 2 {
			t.Fatalf("recovered rate = %+v, want steady 2/s", res.Points)
		}
	}
}

// TestHistorySnapshotCompaction: snapshot compaction folds many batches
// into one fixed-size series dump, NaN slots survive the JSON snapshot,
// and WAL batches replayed over the snapshot do not double-count.
func TestHistorySnapshotCompaction(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, Options{Dir: dir, SnapshotEvery: 16})
	s.CreateSeries(histDef("glare_fails_total"))
	total := 0.0
	for i := 0; i <= 40; i++ {
		if i%7 == 3 {
			continue // leave unknown slots so NaN crosses the snapshot
		}
		total += 1
		s.AppendBatch(rrd.Batch{
			TS:      histEpoch.Add(time.Duration(i) * time.Second),
			Samples: []rrd.Sample{{Name: "glare_fails_total", Value: total}},
		})
	}
	st := s.Status()
	if !st.HasSnapshot {
		t.Fatal("no snapshot taken")
	}
	want, err := s.State().History.Fetch("glare_fails_total", rrd.Average, histEpoch, histEpoch.Add(40*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	s.Close()

	re := mustOpen(t, Options{Dir: dir})
	defer re.Close()
	got, err := re.State().History.Fetch("glare_fails_total", rrd.Average, histEpoch, histEpoch.Add(40*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Points) != len(want.Points) {
		t.Fatalf("recovered %d points, want %d", len(got.Points), len(want.Points))
	}
	sawNaN := false
	for i := range want.Points {
		a, b := want.Points[i].V, got.Points[i].V
		if math.IsNaN(a) {
			sawNaN = true
		}
		if math.IsNaN(a) != math.IsNaN(b) || (!math.IsNaN(a) && a != b) {
			t.Fatalf("point %d diverged after recovery: %v vs %v", i, a, b)
		}
	}
	if !sawNaN {
		t.Fatal("test did not exercise NaN slots across the snapshot")
	}
}
