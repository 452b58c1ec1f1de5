package store

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"glare/internal/lease"
	"glare/internal/simclock"
)

// put builds a registry upsert record with a recognizable document.
func put(reg, key, doc string, lut time.Time) Record {
	return Record{Op: OpPut, Reg: reg, Key: key, Doc: doc, LUT: lut}
}

func mustOpen(t *testing.T, opts Options) *Store {
	t.Helper()
	s, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func appendAll(t *testing.T, s *Store, recs ...Record) {
	t.Helper()
	for _, r := range recs {
		if err := s.Append(r); err != nil {
			t.Fatal(err)
		}
	}
}

func TestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	clock := simclock.NewVirtual(time.Time{})
	lut := clock.Now()

	s := mustOpen(t, Options{Dir: dir, Clock: clock})
	tk := lease.Ticket{ID: 0, Deployment: "jpovray", Client: "c1",
		Kind: lease.Exclusive, Start: lut, End: lut.Add(time.Hour)}
	appendAll(t, s,
		put(RegATR, "POVray", "<Properties>povray</Properties>", lut),
		put(RegADR, "jpovray", "<Properties>jpovray</Properties>", lut),
		put(RegATR, "Java", "<Properties>java-old</Properties>", lut),
		put(RegATR, "Java", "<Properties>java-new</Properties>", lut.Add(time.Minute)),
		Record{Op: OpLeaseAcquire, Ticket: &tk},
		Record{Op: OpLeaseLimit, Key: "jpovray", Limit: 3},
		put(RegATR, "Ant", "<Properties>ant</Properties>", lut),
		Record{Op: OpDelete, Reg: RegATR, Key: "Ant"},
	)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	re := mustOpen(t, Options{Dir: dir, Clock: clock})
	st := re.State()
	atr := st.Registries[RegATR]
	if len(atr) != 2 {
		t.Fatalf("atr entries = %d, want 2 (%v)", len(atr), atr)
	}
	if _, ok := atr["Ant"]; ok {
		t.Fatal("deleted entry survived replay")
	}
	// Last write wins, and the journaled LUT is preserved exactly.
	if got := atr["Java"]; got.Doc != "<Properties>java-new</Properties>" ||
		!got.LUT.Equal(lut.Add(time.Minute)) {
		t.Fatalf("Java entry = %+v", got)
	}
	if got := st.Registries[RegADR]["jpovray"].Doc; got != "<Properties>jpovray</Properties>" {
		t.Fatalf("adr doc = %q", got)
	}
	got, ok := st.Leases.Tickets[tk.ID]
	if !ok || got.Client != "c1" || got.Kind != lease.Exclusive {
		t.Fatalf("ticket = %+v ok=%v", got, ok)
	}
	if st.Leases.Limits["jpovray"] != 3 {
		t.Fatalf("limit = %d", st.Leases.Limits["jpovray"])
	}
	// Recovery resumes the sequence where the journal left off.
	if err := re.Append(put(RegATR, "Wien2k", "<Properties/>", lut)); err != nil {
		t.Fatal(err)
	}
	if re.Status().LastSeq != 9 {
		t.Fatalf("lastSeq = %d, want 9", re.Status().LastSeq)
	}
}

func key(i int) string { return string(rune('A'+i/26)) + string(rune('a'+i%26)) }

func TestSnapshotCompaction(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, Options{Dir: dir, SnapshotEvery: 10})
	for i := 0; i < 25; i++ {
		appendAll(t, s, put(RegATR, key(i%7), "<Properties>v</Properties>", time.Time{}))
	}
	st := s.Status()
	if !st.HasSnapshot {
		t.Fatal("no snapshot after 25 appends with SnapshotEvery=10")
	}
	// Compaction collapsed 20 journaled records into 7 live ones.
	if st.SnapshotRecords != 7 {
		t.Fatalf("snapshot records = %d, want 7", st.SnapshotRecords)
	}
	s.Close()

	// Reopen: state comes from the head plus the 5-record tail.
	re := mustOpen(t, Options{Dir: dir, SnapshotEvery: 10})
	if n := len(re.State().Registries[RegATR]); n != 7 {
		t.Fatalf("live entries = %d, want 7", n)
	}
	if re.Status().LastSeq != 25 {
		t.Fatalf("lastSeq = %d, want 25", re.Status().LastSeq)
	}
}

// TestSnapshotPreservesMaxLeaseID guards the ID-retirement invariant
// through compaction: the highest journaled ticket ID must survive a
// snapshot even when that ticket was released before the snapshot was
// taken (the flattened state no longer contains it).
func TestSnapshotPreservesMaxLeaseID(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, Options{Dir: dir, SnapshotEvery: -1})
	tk := lease.Ticket{ID: 41, Deployment: "d", Client: "c", Kind: lease.Shared,
		End: time.Now().Add(time.Hour)}
	appendAll(t, s,
		Record{Op: OpLeaseAcquire, Ticket: &tk},
		Record{Op: OpLeaseRelease, ID: 41},
	)
	if err := s.Snapshot(); err != nil {
		t.Fatal(err)
	}
	s.Close()

	re := mustOpen(t, Options{Dir: dir, SnapshotEvery: -1})
	if got := re.State().Leases.MaxID; got != 41 {
		t.Fatalf("MaxID through snapshot = %d, want 41", got)
	}
}

func TestSnapshotDeletesCompactedFiles(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, Options{Dir: dir, SnapshotEvery: -1})
	for i := 0; i < 20; i++ {
		appendAll(t, s, put(RegATR, key(i), "<Properties>grow</Properties>", time.Time{}))
	}
	if err := s.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if names := dirNames(t, dir); len(names) != 1 || names[0] != epochName(20) {
		t.Fatalf("files after compaction and Close = %v, want only %s", names, epochName(20))
	}
}

// dirNames lists every file in dir.
func dirNames(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	return names
}

func TestFsyncPolicies(t *testing.T) {
	for _, policy := range []FsyncPolicy{FsyncAlways, FsyncInterval, FsyncNever} {
		dir := t.TempDir()
		s := mustOpen(t, Options{Dir: dir, Fsync: policy})
		appendAll(t, s,
			put(RegATR, "A", "<Properties/>", time.Time{}),
			put(RegATR, "B", "<Properties/>", time.Time{}),
		)
		s.Close()
		re := mustOpen(t, Options{Dir: dir, Fsync: policy})
		if n := len(re.State().Registries[RegATR]); n != 2 {
			t.Fatalf("%v: replayed %d entries, want 2", policy, n)
		}
	}
}

func TestParseFsyncPolicy(t *testing.T) {
	cases := map[string]FsyncPolicy{
		"always": FsyncAlways, "interval": FsyncInterval, "never": FsyncNever,
		"": FsyncInterval,
	}
	for in, want := range cases {
		got, err := ParseFsyncPolicy(in)
		if err != nil || got != want {
			t.Fatalf("ParseFsyncPolicy(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParseFsyncPolicy("sometimes"); err == nil {
		t.Fatal("bogus policy accepted")
	}
}

// TestCorruptSnapshotFallsBackToWAL: a newer file whose head has no seal
// record is not trusted, and the older file still reproduces the state.
func TestCorruptSnapshotFallsBackToWAL(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, Options{Dir: dir, SnapshotEvery: -1})
	appendAll(t, s,
		put(RegATR, "A", "<Properties>a</Properties>", time.Time{}),
		put(RegATR, "B", "<Properties>b</Properties>", time.Time{}),
	)
	s.Sync()
	// Fabricate a torn head: valid frames but no seal.
	rec, _ := put(RegATR, "X", "<Properties>ghost</Properties>", time.Time{}).encode()
	if err := os.WriteFile(filepath.Join(dir, epochName(99)), encodeFrame(rec), 0o644); err != nil {
		t.Fatal(err)
	}
	s.Close()

	re := mustOpen(t, Options{Dir: dir, SnapshotEvery: -1})
	st := re.State()
	if _, ok := st.Registries[RegATR]["X"]; ok {
		t.Fatal("unsealed head was trusted")
	}
	if len(st.Registries[RegATR]) != 2 {
		t.Fatalf("WAL fallback lost records: %v", st.Registries[RegATR])
	}
}

func TestStatusSurface(t *testing.T) {
	dir := t.TempDir()
	clock := simclock.NewVirtual(time.Time{})
	s := mustOpen(t, Options{Dir: dir, Clock: clock, SnapshotEvery: -1})
	appendAll(t, s, put(RegADR, "d1", "<Properties/>", clock.Now()))
	if err := s.Snapshot(); err != nil {
		t.Fatal(err)
	}
	clock.Advance(90 * time.Second)
	st := s.Status()
	if st.Dir != dir || st.LastSeq != 1 || !st.HasSnapshot || st.LiveRecords != 1 {
		t.Fatalf("status = %+v", st)
	}
	if st.SnapshotAge != 90*time.Second {
		t.Fatalf("snapshot age = %v", st.SnapshotAge)
	}
	if st.Appended != 1 {
		t.Fatalf("appended = %d", st.Appended)
	}
}

// TestDeployCheckpointRoundTrip proves build-step checkpoints replay with
// their truncate-on-divergence semantics, survive snapshot compaction, and
// vanish on clear.
func TestDeployCheckpointRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, Options{Dir: dir, SnapshotEvery: -1})
	s.RecordStep(DeployStep{Type: "Wien2k", Build: "Wien2k", Step: "Init", Index: 0})
	s.RecordStep(DeployStep{Type: "Wien2k", Build: "Wien2k", Step: "Download", Index: 1,
		Transfer: true, MD5: "abc123",
		Files: []DeployFile{{Path: "/tmp/wien2k/wien2k.tgz", Size: 100, New: true}}})
	s.RecordStep(DeployStep{Type: "Wien2k", Build: "Wien2k", Step: "Expand", Index: 2,
		Unpacks: []DeployUnpack{{Dir: "/tmp/wien2k/wien2k-05", Artifact: "Wien2k"}}})
	s.RecordStep(DeployStep{Type: "Counter", Build: "Counter", Step: "Init", Index: 0})
	// A re-run at index 1 truncates the stale Expand checkpoint.
	s.RecordStep(DeployStep{Type: "Wien2k", Build: "Wien2k", Step: "Download", Index: 1,
		Transfer: true, MD5: "def456"})
	s.ClearSteps("Counter")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	re := mustOpen(t, Options{Dir: dir, SnapshotEvery: -1})
	st := re.State()
	if _, ok := st.Deploys["Counter"]; ok {
		t.Fatal("cleared build survived replay")
	}
	steps := st.Deploys["Wien2k"]
	if len(steps) != 2 {
		t.Fatalf("Wien2k checkpoints = %+v, want Init + re-run Download", steps)
	}
	if steps[1].MD5 != "def456" || len(steps[1].Files) != 0 {
		t.Fatalf("truncation kept the stale download: %+v", steps[1])
	}

	// Checkpoints are part of the snapshot image, not just the WAL.
	if err := re.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
	third := mustOpen(t, Options{Dir: dir, SnapshotEvery: -1})
	if got := third.State().Deploys["Wien2k"]; len(got) != 2 || got[0].Step != "Init" {
		t.Fatalf("snapshot lost checkpoints: %+v", got)
	}
}

// TestBootFromSnapshotOnly pins recovery from a file that holds only a
// head: nothing was appended after the compaction. The store must boot
// the full flattened state from the head alone and resume the sequence
// from the head's seal, not from zero.
func TestBootFromSnapshotOnly(t *testing.T) {
	dir := t.TempDir()
	clock := simclock.NewVirtual(time.Time{})
	lut := clock.Now()

	s := mustOpen(t, Options{Dir: dir, Clock: clock, SnapshotEvery: -1})
	tk := lease.Ticket{ID: 7, Deployment: "jpovray", Client: "c1",
		Kind: lease.Exclusive, Start: lut, End: lut.Add(time.Hour)}
	appendAll(t, s,
		put(RegATR, "POVray", "<Properties>povray</Properties>", lut),
		put(RegADR, "jpovray", "<Properties>jpovray</Properties>", lut),
		Record{Op: OpLeaseAcquire, Ticket: &tk},
		put(RegATR, "Ant", "<Properties>ant</Properties>", lut),
		Record{Op: OpDelete, Reg: RegATR, Key: "Ant"},
	)
	if err := s.Snapshot(); err != nil {
		t.Fatal(err)
	}
	wantSeq := s.Status().LastSeq
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	if names := dirNames(t, dir); len(names) != 1 || names[0] != epochName(wantSeq) {
		t.Fatalf("files = %v, want only the head-only %s", names, epochName(wantSeq))
	}

	re := mustOpen(t, Options{Dir: dir, Clock: clock, SnapshotEvery: -1})
	st := re.State()
	atr := st.Registries[RegATR]
	if len(atr) != 1 || atr["POVray"].Doc != "<Properties>povray</Properties>" {
		t.Fatalf("atr from snapshot alone = %v", atr)
	}
	if _, ok := atr["Ant"]; ok {
		t.Fatal("deleted entry resurrected from snapshot")
	}
	if got := st.Registries[RegADR]["jpovray"].Doc; got != "<Properties>jpovray</Properties>" {
		t.Fatalf("adr doc = %q", got)
	}
	if got, ok := st.Leases.Tickets[tk.ID]; !ok || got.Client != "c1" {
		t.Fatalf("ticket from snapshot = %+v ok=%v", got, ok)
	}
	status := re.Status()
	if !status.HasSnapshot || status.ReplayRecords != 0 {
		t.Fatalf("status after snapshot-only boot = %+v", status)
	}
	// The sequence resumes above the snapshot seal, so records written
	// after the restore never collide with pre-snapshot sequence numbers.
	if err := re.Append(put(RegATR, "Java", "<Properties/>", lut)); err != nil {
		t.Fatal(err)
	}
	if got := re.Status().LastSeq; got <= wantSeq {
		t.Fatalf("lastSeq after snapshot-only boot = %d, want > %d", got, wantSeq)
	}
}

func TestCASBlobRoundTrip(t *testing.T) {
	dir := t.TempDir()
	clock := simclock.NewVirtual(time.Time{})
	added := clock.Now().Add(time.Minute)

	s := mustOpen(t, Options{Dir: dir, Clock: clock, SnapshotEvery: -1})
	s.PutBlob(CASBlob{Algo: "sha256", Sum: "aaa", Actual: "aaa", Size: 5 << 20,
		MD5: "m1", Artifact: "Ant", URL: "http://repo/ant.tgz", Added: added})
	s.PutBlob(CASBlob{Algo: "md5", Sum: "bbb", Actual: "bbb", Size: 1 << 20, Artifact: "POVray"})
	s.PutBlob(CASBlob{Algo: "md5", Sum: "ccc", Actual: "ccc", Size: 2 << 20})
	s.DeleteBlob("md5:ccc") // evicted: must not survive replay
	// Re-ingest after corruption: last write wins.
	s.PutBlob(CASBlob{Algo: "md5", Sum: "bbb", Actual: "rot-bbb", Size: 1 << 20, Artifact: "POVray"})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	re := mustOpen(t, Options{Dir: dir, Clock: clock, SnapshotEvery: -1})
	st := re.State()
	if len(st.CAS) != 2 {
		t.Fatalf("CAS blobs after replay = %+v", st.CAS)
	}
	ant := st.CAS["sha256:aaa"]
	if ant.Artifact != "Ant" || ant.Size != 5<<20 || !ant.Added.Equal(added) || ant.URL != "http://repo/ant.tgz" {
		t.Fatalf("ant blob = %+v", ant)
	}
	if got := st.CAS["md5:bbb"]; got.Actual != "rot-bbb" {
		t.Fatalf("re-ingested blob = %+v, want last write to win", got)
	}
	if _, ok := st.CAS["md5:ccc"]; ok {
		t.Fatal("deleted blob survived replay")
	}

	// Blobs are part of the snapshot image, not just the WAL.
	if err := re.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
	third := mustOpen(t, Options{Dir: dir, Clock: clock, SnapshotEvery: -1})
	if got := third.State().CAS; len(got) != 2 || got["sha256:aaa"].Artifact != "Ant" {
		t.Fatalf("snapshot lost CAS blobs: %+v", got)
	}
}
