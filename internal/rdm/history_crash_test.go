package rdm

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"testing"
	"time"

	"glare/internal/activity"
	"glare/internal/faultinject"
	"glare/internal/rrd"
	"glare/internal/simclock"
	"glare/internal/store"
	"glare/internal/telemetry"
)

// crashHistory keeps the crash runs small: rings of a few slots, which
// the gaps in historyTicks make wrap.
var crashHistory = HistoryConfig{Archives: []rrd.ArchiveSpec{
	{CF: rrd.Average, Steps: 1, Rows: 6},
	{CF: rrd.Average, Steps: 3, Rows: 4},
	{CF: rrd.Max, Steps: 2, Rows: 4},
}}

const crashTicks = 8

// historyTicks drives the sampler for up to crashTicks ticks, stopping
// after the tick in which crashed turns true. Each tick moves one counter
// and adds a new one, so every tick journals a series create in the
// middle of its pass as well as its batch; some ticks skip steps to leave
// NaN gaps. With snapBetween the store is compacted after every other
// tick, never inside one.
func historyTicks(svc *Service, v *simclock.Virtual, snapBetween bool, crashed func() bool) {
	step := svc.historyCfg.Step
	for i := 0; i < crashTicks && !crashed(); i++ {
		v.Advance(step)
		if i%4 == 2 {
			v.Advance(3 * step)
		}
		svc.tel.Counter("glare_probe_total").Add(uint64(i * i))
		svc.tel.Counter("glare_probe_tick_total", telemetry.L("tick", strconv.Itoa(i))).Inc()
		svc.SampleTelemetry()
		if snapBetween && i%2 == 1 && !crashed() {
			_ = svc.Store().Snapshot()
		}
	}
}

// crashRun is one site killed at one WAL frame.
type crashRun struct {
	// crashed is false once n is past the last frame the run appends.
	crashed bool
	// durable holds the frames that reached disk whole, in append order.
	durable [][]byte
	// live is each live series' last sample time when the crash fired.
	live map[string]int64
	// recovered is the site booted again on the crashed directory.
	recovered *Service
}

// crashAtFrame boots a durable site whose store dies on its n-th append
// (cut selects how much of that frame lands), samples until the crash,
// and boots the site again on the same directory.
func crashAtFrame(t *testing.T, n int, cut float64, snapshotEvery int, snapBetween bool) crashRun {
	t.Helper()
	v := simclock.NewVirtual(time.Time{})
	dir := t.TempDir()
	crasher := faultinject.NewStoreCrasher()
	crasher.ArmAfter(n, cut)
	var run crashRun
	var svc *Service
	hook := func(frame []byte) (int, bool) {
		keep, crash := crasher.Hook(frame)
		if keep == len(frame) {
			run.durable = append(run.durable, append([]byte(nil), frame...))
		}
		if crash {
			run.crashed = true
			run.live = lastSamples(svc.History())
		}
		return keep, crash
	}
	st, err := store.Open(store.Options{Dir: dir, Clock: v, Fsync: store.FsyncNever,
		SnapshotEvery: snapshotEvery, AppendHook: hook})
	if err != nil {
		t.Fatal(err)
	}
	svc = bootDurable(t, st, v, crashHistory)
	historyTicks(svc, v, snapBetween, crasher.Crashed)
	svc.Stop()
	re, err := store.Open(store.Options{Dir: dir, Clock: v, SnapshotEvery: -1})
	if err != nil {
		t.Fatalf("frame %d: boot after crash: %v", n, err)
	}
	run.recovered = bootDurable(t, re, v, crashHistory)
	return run
}

// replayFrames writes frames as the only WAL segment of a fresh store and
// opens it: the snapshot-free replay of exactly those records.
func replayFrames(t *testing.T, frames [][]byte) *store.Store {
	t.Helper()
	dir := t.TempDir()
	fresh, err := store.Open(store.Options{Dir: dir, SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	fresh.Close()
	entries, err := os.ReadDir(dir)
	if err != nil || len(entries) != 1 {
		t.Fatalf("fresh store dir = %v, %v; want one segment", entries, err)
	}
	if err := os.WriteFile(filepath.Join(dir, entries[0].Name()), bytes.Join(frames, nil), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := store.Open(store.Options{Dir: dir, SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func lastSamples(h *rrd.Store) map[string]int64 {
	out := map[string]int64{}
	for _, d := range h.Dump() {
		out[d.Def.Name] = d.LastTS
	}
	return out
}

func dumpJSON(t *testing.T, h *rrd.Store) []byte {
	t.Helper()
	b, err := json.Marshal(h.Dump())
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// crashCuts rotates the fatal frame between lost, torn and landed whole.
var crashCuts = []float64{0, 0.5, 1}

// TestHistoryCrashAtEveryFrameBetweenTicks kills a durable site at every
// WAL frame of a sampling run whose snapshots are taken only between
// ticks. A snapshot then holds exactly the durable records, so the
// recovered history must equal the snapshot-free replay of the durable
// prefix, ring for ring and accumulator for accumulator.
func TestHistoryCrashAtEveryFrameBetweenTicks(t *testing.T) {
	fromSnapshot := 0
	n := 1
	for ; ; n++ {
		run := crashAtFrame(t, n, crashCuts[n%len(crashCuts)], -1, true)
		if !run.crashed {
			run.recovered.Stop()
			break
		}
		replay := replayFrames(t, run.durable)
		want, got := dumpJSON(t, replay.History()), dumpJSON(t, run.recovered.History())
		if !bytes.Equal(want, got) {
			t.Fatalf("frame %d: recovered history differs from the durable prefix's replay:\n got %s\nwant %s", n, got, want)
		}
		if run.recovered.Store().Status().HasSnapshot {
			fromSnapshot++
		}
		replay.Close()
		run.recovered.Stop()
	}
	t.Logf("crashed at each of %d frames; %d recoveries started from a snapshot", n-1, fromSnapshot)
	if n < 2*crashTicks || fromSnapshot == 0 {
		t.Fatalf("%d frames, %d recoveries from a snapshot: the run did not exercise both paths", n-1, fromSnapshot)
	}
}

// TestHistoryCrashAtEveryFrameMidTick kills a durable site at every WAL
// frame while a small SnapshotEvery fires snapshots inside ticks, so a
// snapshot can hold samples whose batch never reached the WAL. Boot must
// never fail, and every recovered series must lie between the durable
// prefix's replay and the live site at the crash (DESIGN §12, the cut).
func TestHistoryCrashAtEveryFrameMidTick(t *testing.T) {
	cutSeen := false
	n := 1
	for ; ; n++ {
		run := crashAtFrame(t, n, crashCuts[n%len(crashCuts)], 7, false)
		if !run.crashed {
			run.recovered.Stop()
			break
		}
		replay := replayFrames(t, run.durable)
		floor := lastSamples(replay.History())
		got := lastSamples(run.recovered.History())
		for name, lo := range floor {
			if _, ok := got[name]; !ok {
				t.Fatalf("frame %d: durable series %s not recovered", n, name)
			}
			if got[name] < lo {
				t.Fatalf("frame %d: %s recovered at %d, before the durable prefix's %d", n, name, got[name], lo)
			}
		}
		for name, ts := range got {
			hi, ok := run.live[name]
			if !ok || ts > hi {
				t.Fatalf("frame %d: %s recovered at %d, past the live site's %d (present %v)", n, name, ts, hi, ok)
			}
			if ts > floor[name] {
				cutSeen = true
			}
		}
		replay.Close()
		run.recovered.Stop()
	}
	t.Logf("crashed at each of %d frames", n-1)
	if !cutSeen {
		t.Fatalf("no crash among %d frames recovered samples past the durable prefix: no snapshot fired mid-tick", n-1)
	}
}

// TestHistorySnapshotsRaceTheSampler: registrations on one goroutine fire
// snapshots (a small SnapshotEvery) that dump the rings while the sampler
// writes them on another. After a clean stop every batch is in the WAL, so
// the site must come back with exactly the history it had, wherever in a
// tick the snapshots fell.
func TestHistorySnapshotsRaceTheSampler(t *testing.T) {
	v := simclock.NewVirtual(time.Time{})
	dir := t.TempDir()
	st, err := store.Open(store.Options{Dir: dir, Clock: v, Fsync: store.FsyncNever, SnapshotEvery: 5})
	if err != nil {
		t.Fatal(err)
	}
	svc := bootDurable(t, st, v, crashHistory)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		historyTicks(svc, v, false, func() bool { return false })
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 40; i++ {
			if _, err := svc.RegisterType(&activity.Type{Name: "Racer" + strconv.Itoa(i)}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	if svc.Store().Status().SnapshotSeq == 0 {
		t.Fatal("no snapshot fired")
	}
	live := dumpJSON(t, svc.History())
	svc.Stop()

	re, err := store.Open(store.Options{Dir: dir, Clock: v, SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	if got := dumpJSON(t, bootDurable(t, re, v, crashHistory).History()); !bytes.Equal(got, live) {
		t.Fatalf("history after restart differs:\n got %s\nwant %s", got, live)
	}
}
