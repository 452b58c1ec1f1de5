package store

import (
	"encoding/binary"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"glare/internal/lease"
	"glare/internal/rrd"
)

// writeSegment frames each payload with a valid CRC and writes them, in
// order, as the headless first file of a fresh data directory.
func writeSegment(t testing.TB, payloads ...[]byte) string {
	t.Helper()
	dir := t.TempDir()
	var seg []byte
	for _, p := range payloads {
		seg = append(seg, encodeFrame(p)...)
	}
	if err := os.WriteFile(filepath.Join(dir, epochName(0)), seg, 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

func mustEncode(t testing.TB, r Record) []byte {
	t.Helper()
	b, err := r.encode()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestRecoverDropsNegativeDeployIndex: a deploy-step record that passes
// its checksum but carries a negative Index is treated like a frame that
// does not decode. The boot succeeds, the log is truncated at that frame,
// and the records before it are the state.
func TestRecoverDropsNegativeDeployIndex(t *testing.T) {
	bad := Record{Seq: 2, Op: OpDeployStep, Key: "JPOVray",
		Deploy: &DeployStep{Type: "JPOVray", Build: "jpovray.build", Step: "fetch", Index: -1}}
	after := put(RegATR, "Late", "<Properties/>", time.Time{})
	after.Seq = 3
	first := put(RegATR, "Early", "<Properties/>", time.Time{})
	first.Seq = 1
	dir := writeSegment(t, mustEncode(t, first), mustEncode(t, bad), mustEncode(t, after))

	s := mustOpen(t, Options{Dir: dir, SnapshotEvery: -1})
	st := s.State()
	if _, ok := st.Registries[RegATR]["Early"]; !ok {
		t.Fatal("record before the bad frame was lost")
	}
	if _, ok := st.Registries[RegATR]["Late"]; ok {
		t.Fatal("record after the bad frame survived the tear")
	}
	if len(st.Deploys) != 0 {
		t.Fatalf("deploys = %+v, want none", st.Deploys)
	}
	status := s.Status()
	if status.LastSeq != 1 || status.TruncatedBytes == 0 {
		t.Fatalf("status = %+v, want lastSeq 1 and a truncated tail", status)
	}
	if err := s.Append(put(RegATR, "Resumed", "<Properties/>", time.Time{})); err != nil {
		t.Fatalf("append after recovery: %v", err)
	}
}

// recoverSeeds returns one well-formed record of every Op, each with a
// sequence number past the (absent) snapshot so replay folds it. The
// records are kept small (two three-slot archives, one-file steps) so a
// byte-level mutation lands on a meaningful field often.
func recoverSeeds(t testing.TB) []Record {
	t.Helper()
	at := time.Date(2005, 11, 12, 0, 0, 0, 0, time.UTC)
	def := rrd.SeriesDef{Name: "f", Kind: rrd.Counter, Step: time.Second,
		Archives: []rrd.ArchiveSpec{{CF: rrd.Average, Steps: 1, Rows: 3}, {CF: rrd.Max, Steps: 2, Rows: 3}}}
	h := rrd.NewStore(time.Second)
	if err := h.Create(def); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		_ = h.Update(def.Name, at.Add(time.Duration(i)*time.Second), float64(i))
	}
	dump := h.Dump()[0]
	tk := lease.Ticket{ID: 7, Deployment: "jpovray", Client: "c1", Kind: lease.Exclusive,
		Start: at, End: at.Add(time.Hour)}
	blob := CASBlob{Algo: "sha256", Sum: "ab12", Size: 4096, Artifact: "Ant", Added: at}
	seeds := []Record{
		put(RegATR, "POVray", "<Properties>povray</Properties>", at),
		{Op: OpDelete, Reg: RegATR, Key: "POVray"},
		{Op: OpLeaseAcquire, Ticket: &tk},
		{Op: OpLeaseRelease, ID: 7},
		{Op: OpLeaseLimit, Key: "jpovray", Limit: 2},
		{Op: opSnapSeal, ID: 7},
		{Op: OpDeployStep, Key: "J", Deploy: &DeployStep{Type: "J", Step: "fetch", Index: 2}},
		{Op: OpDeployClear, Key: "JPOVray"},
		{Op: OpHistoryCreate, Key: def.Name, HistoryDef: &def},
		{Op: OpHistoryBatch, HistoryBatch: &rrd.Batch{TS: at.Add(time.Minute),
			Samples: []rrd.Sample{{Name: def.Name, Value: 9}}}},
		{Op: OpHistorySeries, Key: def.Name, HistorySeries: &dump},
		{Op: OpCASPut, Key: blob.ID(), CAS: &blob},
		{Op: OpCASDelete, Key: blob.ID()},
	}
	for i := range seeds {
		seeds[i].Seq = uint64(i + 1)
	}
	return seeds
}

// seedPayloads encodes each record as a store writes it today and, for
// registry records, also as JSON, the form files written before the
// binary layout hold.
func seedPayloads(t testing.TB, recs []Record) [][]byte {
	t.Helper()
	var out [][]byte
	for _, r := range recs {
		out = append(out, mustEncode(t, r))
		if r.Op.binary() {
			b, err := json.Marshal(r)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, b)
		}
	}
	return out
}

// TestRecoverSeedsCoverEveryOp keeps FuzzRecover's corpus complete when an
// Op or an encoding is added: every op is seeded as JSON, and registry
// ops also in the binary layout.
func TestRecoverSeedsCoverEveryOp(t *testing.T) {
	type kind struct {
		op     Op
		binary bool
	}
	have := map[kind]bool{}
	for _, p := range seedPayloads(t, recoverSeeds(t)) {
		r, err := decodeRecord(p)
		if err != nil {
			t.Fatalf("seed %q does not decode: %v", p, err)
		}
		have[kind{r.Op, p[0] == binaryVersion}] = true
	}
	for op := OpPut; op <= OpCASDelete; op++ {
		for _, bin := range []bool{false, true} {
			if want := !bin || op.binary(); have[kind{op, bin}] != want {
				t.Errorf("FuzzRecover seed for %v with binary=%v: have %v, want %v", op, bin, have[kind{op, bin}], want)
			}
		}
	}
}

// joinPayloads is FuzzRecover's input: each payload led by its uvarint
// length, so a payload may hold any byte and a mutation can splice
// several.
func joinPayloads(payloads ...[]byte) []byte {
	var out []byte
	for _, p := range payloads {
		out = binary.AppendUvarint(out, uint64(len(p)))
		out = append(out, p...)
	}
	return out
}

// splitPayloads inverts joinPayloads for any input: a length past the end
// takes the rest, and a malformed length makes the rest one payload.
func splitPayloads(b []byte) [][]byte {
	var out [][]byte
	for len(b) > 0 {
		n, k := binary.Uvarint(b)
		if k <= 0 {
			return append(out, b)
		}
		b = b[k:]
		n = min(n, uint64(len(b)))
		out = append(out, b[:n])
		b = b[n:]
	}
	return out
}

// FuzzRecover writes the fuzz payloads (joinPayloads) as a WAL file, one
// CRC-valid frame each, and boots a store on it. Open must succeed
// without panicking whatever the frames decode to, feeding every
// recovered history series one later sample must not panic, and the
// history must still dump to JSON as a snapshot does. A snapshot of that
// state, closed and reopened, must then recover the same registries,
// leases, deploy checkpoints, CAS entries and history.
func FuzzRecover(f *testing.F) {
	seeds := recoverSeeds(f)
	for _, p := range seedPayloads(f, seeds) {
		f.Add(joinPayloads(p))
	}
	// A counter whose one-second jump has a rate beyond float64.
	create := seeds[slices.IndexFunc(seeds, func(r Record) bool { return r.Op == OpHistoryCreate })]
	frames := [][]byte{mustEncode(f, create)}
	for i, v := range []float64{-1.7e308, 1.7e308} {
		b := &rrd.Batch{TS: time.Unix(1, 0).Add(time.Duration(i) * time.Second),
			Samples: []rrd.Sample{{Name: create.Key, Value: v}}}
		frames = append(frames, mustEncode(f, Record{Seq: uint64(10 + i), Op: OpHistoryBatch, HistoryBatch: b}))
	}
	f.Add(joinPayloads(frames...))
	f.Fuzz(func(t *testing.T, payload []byte) {
		dir := writeSegment(t, splitPayloads(payload)...)
		s, err := Open(Options{Dir: dir, Fsync: FsyncNever, SnapshotEvery: -1})
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		defer s.Close()
		h := s.History()
		for _, name := range h.Names() {
			next := time.Unix(0, 1)
			if last, ok := h.LastTS(name); ok {
				next = last.Add(time.Second)
			}
			_ = h.Update(name, next, 1)
		}
		if _, err := json.Marshal(h.Dump()); err != nil {
			t.Fatalf("recovered history does not dump: %v", err)
		}

		// A snapshot of the recovered state must reopen to that state.
		want, wantHist := stateJSON(t, s)
		if err := s.Snapshot(); err != nil {
			t.Fatalf("Snapshot: %v", err)
		}
		if err := s.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		re, err := Open(Options{Dir: dir, Fsync: FsyncNever, SnapshotEvery: -1})
		if err != nil {
			t.Fatalf("reopen after snapshot: %v", err)
		}
		defer re.Close()
		got, gotHist := stateJSON(t, re)
		if got != want {
			t.Fatalf("state after snapshot and reopen:\n%s\nwant:\n%s", got, want)
		}
		if gotHist != wantHist {
			t.Fatalf("history after snapshot and reopen:\n%s\nwant:\n%s", gotHist, wantHist)
		}
	})
}

// stateJSON renders a store's registries, leases, deploy checkpoints and
// CAS entries, and separately its history dump, in a canonical form
// (encoding/json sorts map keys).
func stateJSON(t *testing.T, s *Store) (state, history string) {
	t.Helper()
	st := s.State()
	b, err := json.Marshal(struct {
		Registries map[string]map[string]Entry
		Leases     LeaseState
		Deploys    map[string][]DeployStep
		CAS        map[string]CASBlob
	}{st.Registries, st.Leases, st.Deploys, st.CAS})
	if err != nil {
		t.Fatalf("state does not encode: %v", err)
	}
	h, err := json.Marshal(s.History().Dump())
	if err != nil {
		t.Fatalf("history does not dump: %v", err)
	}
	return string(b), string(h)
}
