// Package store is the durable registry store: an append-only,
// CRC32-framed write-ahead log in one live file, which each periodic
// compaction replaces by a new file headed by the folded state, a
// configurable fsync policy, and corruption-tolerant crash recovery.
//
// GLARE's registries are stateful WS-Resources whose LastUpdateTime drives
// cache revival and anti-entropy, yet without this package every
// registration, deployment EPR and lease lives only in memory — a glared
// restart silently erases the site and forces the grid to rediscover it.
// The store journals every mutation of the ATR, ADR and lease service;
// on restart the site replays the journal and comes back with the exact
// registry state (documents, LastUpdateTimes, termination times, unexpired
// leases) it crashed with, so no re-registration traffic is needed.
//
// Recovery never fails the boot on a damaged tail: scanning truncates at
// the first torn or bad-checksum record and the longest valid prefix
// becomes the state, mirroring how production write-ahead logs (and the
// EU DataGrid replica catalogs GLARE's registries descend from) survive
// crashes mid-write.
package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"glare/internal/lease"
	"glare/internal/rrd"
	"glare/internal/simclock"
	"glare/internal/telemetry"
	"glare/internal/xmlutil"
)

// FsyncPolicy selects when appended records are forced to stable storage.
type FsyncPolicy int

const (
	// FsyncInterval batches fsyncs: an append syncs only when
	// syncInterval has elapsed since the last sync. The default —
	// bounded loss window, near-FsyncNever throughput.
	FsyncInterval FsyncPolicy = iota
	// FsyncAlways syncs after every append: no acknowledged mutation is
	// ever lost, at the cost of one fsync per record.
	FsyncAlways
	// FsyncNever leaves flushing to the OS; intended for tests and
	// throwaway grids.
	FsyncNever
)

// String renders the policy name (the glared -fsync flag values).
func (p FsyncPolicy) String() string {
	switch p {
	case FsyncAlways:
		return "always"
	case FsyncNever:
		return "never"
	}
	return "interval"
}

// ParseFsyncPolicy maps a flag value onto a policy.
func ParseFsyncPolicy(s string) (FsyncPolicy, error) {
	switch s {
	case "always":
		return FsyncAlways, nil
	case "interval", "":
		return FsyncInterval, nil
	case "never":
		return FsyncNever, nil
	}
	return FsyncInterval, fmt.Errorf("store: unknown fsync policy %q (want always|interval|never)", s)
}

// ErrCrashed is returned by every operation after the crash hook fired:
// the store behaves as if its process died mid-append, and only a fresh
// Open on the same directory (recovery) brings the state back.
var ErrCrashed = errors.New("store: crashed (simulated)")

// DefaultSnapshotEvery is how many appended records trigger a compaction.
const DefaultSnapshotEvery = 1024

// syncInterval bounds the loss window under the FsyncInterval policy.
const syncInterval = 100 * time.Millisecond

// Options configures a store.
type Options struct {
	// Dir is the per-site data directory; created if missing.
	Dir string
	// Fsync is the sync policy (default FsyncInterval).
	Fsync FsyncPolicy
	// SnapshotEvery takes a compacting snapshot after that many appended
	// records (default DefaultSnapshotEvery; negative disables automatic
	// snapshots).
	SnapshotEvery int
	// Clock drives snapshot-age accounting and interval fsync pacing;
	// nil means the wall clock.
	Clock simclock.Clock
	// AppendHook, when set, intercepts the physical write of each framed
	// record: it returns how many bytes of the frame to actually write and
	// whether to crash the store afterwards (ErrCrashed from then on).
	// The faultinject package provides a deterministic implementation; it
	// exists to prove recovery against torn mid-append writes under -race.
	AppendHook func(frame []byte) (keep int, crash bool)
}

// Status is a point-in-time summary of a store, the payload of
// `glarectl store status`.
type Status struct {
	Dir             string
	LastSeq         uint64
	WALBytes        int64
	LiveRecords     int
	SnapshotSeq     uint64
	SnapshotRecords int
	HasSnapshot     bool
	SnapshotAge     time.Duration
	ReplayDuration  time.Duration
	ReplayRecords   int
	TruncatedBytes  int64
	Appended        uint64
	Err             string
}

// Store is one site's durable registry store.
type Store struct {
	mu    sync.Mutex
	opts  Options
	clock simclock.Clock

	state *State
	seq   uint64

	// The live file: the current epoch's head, then its appended tail.
	live      *os.File
	liveName  string
	liveBytes int64

	sinceSnap int
	snapSeq   uint64
	snapCount int
	snapAt    time.Time
	hasSnap   bool

	lastSync time.Time
	dirty    bool
	crashed  bool
	err      error

	appended       uint64
	replayDur      time.Duration
	replayRecords  int
	truncatedTotal int64

	// Superseded files wait in doomed for the one background deleter,
	// which Close waits for. delMu guards doomed, never the store.
	delMu   sync.Mutex
	doomed  []string
	deleter sync.WaitGroup

	// Test hooks: holdDeleter runs before the deleter's first unlink;
	// compactHook runs at each step of a compaction, and true simulates a
	// process death there.
	holdDeleter func()
	compactHook func(step string) bool

	// Telemetry; nil (no-op) until SetTelemetry.
	appendsC, fsyncsC, truncBytesC, snapshotsC, appendErrsC *telemetry.Counter
	snapAgeG, replayMsG, liveG                              *telemetry.Gauge
}

// Open opens (or creates) the store at opts.Dir and runs crash recovery:
// the newest file whose head checks out is replayed, the first torn or
// bad-checksum record truncates it, and every other store file in the
// directory is removed — the boot never fails on a damaged tail, it
// recovers the longest valid prefix and re-opens appendable.
func Open(opts Options) (*Store, error) {
	if opts.Dir == "" {
		return nil, fmt.Errorf("store: Options.Dir is required")
	}
	if opts.Clock == nil {
		opts.Clock = simclock.Real
	}
	if opts.SnapshotEvery == 0 {
		opts.SnapshotEvery = DefaultSnapshotEvery
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, err
	}
	s := &Store{
		opts:     opts,
		clock:    opts.Clock,
		state:    newState(rrd.NewStore(0)),
		lastSync: opts.Clock.Now(),
	}
	if err := s.recover(); err != nil {
		s.Close()
		return nil, err
	}
	return s, nil
}

// recover rebuilds state from disk and leaves the store appendable. It
// removes nothing unless a trusted file has taken the state: a directory
// in the older layout, or one whose every file has a damaged head, fails
// the boot with the files named and left as they are.
func (s *Store) recover() error {
	start := time.Now()
	files, err := listDir(s.opts.Dir)
	if err != nil {
		return err
	}
	if len(files.legacy) > 0 {
		return fmt.Errorf("store: %s holds files of the older snapshot-and-segment layout, which this store does not read: %s",
			s.opts.Dir, strings.Join(files.legacy, ", "))
	}
	// Newest trusted file wins. An untrusted one can only exist if its
	// head was damaged after the rename; the next older file, if still
	// present, holds everything that head was compacting.
	for i := len(files.epochs) - 1; i >= 0 && s.live == nil; i-- {
		if err := s.openEpoch(files.epochs[i]); err != nil {
			return err
		}
	}
	switch {
	case s.live != nil:
	case len(files.epochs) > 0:
		return fmt.Errorf("store: no file in %s has an intact head: %s",
			s.opts.Dir, strings.Join(files.epochs, ", "))
	default:
		f, err := os.OpenFile(filepath.Join(s.opts.Dir, epochName(0)),
			os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o600)
		if err != nil {
			return err
		}
		s.live, s.liveName = f, epochName(0)
	}
	// Every other store file is superseded: compacted epochs, heads
	// damaged after an older file was kept, temp files a crash left.
	for _, name := range files.all {
		if name != s.liveName {
			_ = os.Remove(filepath.Join(s.opts.Dir, name))
		}
	}
	s.replayDur = time.Since(start)
	return nil
}

// openEpoch replays the named file and, if it is trusted, truncates its
// torn tail and makes it the live file.
func (s *Store) openEpoch(name string) error {
	path := filepath.Join(s.opts.Dir, name)
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	seq, _ := parseEpoch(name)
	good, ok := s.load(data, seq)
	if !ok {
		return nil
	}
	if good < int64(len(data)) {
		if err := os.Truncate(path, good); err != nil {
			return err
		}
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	s.live, s.liveName, s.liveBytes = f, name, good
	return nil
}

// SetTelemetry binds the store's glare_store_* series to a site's
// telemetry registry. Call during site assembly.
func (s *Store) SetTelemetry(tel *telemetry.Telemetry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.appendsC = tel.Counter("glare_store_appends_total")
	s.fsyncsC = tel.Counter("glare_store_fsyncs_total")
	s.truncBytesC = tel.Counter("glare_store_truncated_bytes_total")
	s.snapshotsC = tel.Counter("glare_store_snapshots_total")
	s.appendErrsC = tel.Counter("glare_store_append_errors_total")
	s.snapAgeG = tel.Gauge("glare_store_snapshot_age_seconds")
	s.replayMsG = tel.Gauge("glare_store_replay_ms")
	s.liveG = tel.Gauge("glare_store_live_records")
	// Recovery ran before instrumentation existed; backfill its outcome.
	s.replayMsG.Set(s.replayDur.Milliseconds())
	s.truncBytesC.Add(uint64(s.truncatedTotal))
	s.liveG.Set(int64(s.state.liveRecords()))
}

// Append journals one record: it is assigned the next sequence number,
// framed, appended to the live file, fsynced per policy, and folded into
// the in-memory state. Automatic compaction runs when SnapshotEvery
// records have accumulated since the last snapshot.
func (s *Store) Append(rec Record) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.crashed {
		return ErrCrashed
	}
	if s.err != nil {
		return s.err
	}
	s.seq++
	rec.Seq = s.seq
	frame, err := frameOf(rec)
	if err != nil {
		s.seq--
		return s.fail(err)
	}
	if s.opts.AppendHook != nil {
		if keep, crash := s.opts.AppendHook(frame); crash {
			if keep > len(frame) {
				keep = len(frame)
			}
			_, _ = s.live.Write(frame[:keep])
			s.crashed = true
			return ErrCrashed
		}
	}
	if _, err := s.live.Write(frame); err != nil {
		return s.fail(err)
	}
	s.liveBytes += int64(len(frame))
	s.dirty = true
	s.state.apply(rec, frame)
	s.appended++
	s.sinceSnap++
	s.appendsC.Inc()
	s.liveG.Set(int64(s.state.liveRecords()))
	if err := s.maybeSyncLocked(); err != nil {
		return s.fail(err)
	}
	if s.opts.SnapshotEvery > 0 && s.sinceSnap >= s.opts.SnapshotEvery {
		if err := s.snapshotLocked(); err != nil {
			return s.fail(err)
		}
	}
	return nil
}

// fail records a sticky write error: the store stops accepting appends so
// a half-written journal is never extended past the damage.
func (s *Store) fail(err error) error {
	s.err = err
	s.appendErrsC.Inc()
	return err
}

// maybeSyncLocked applies the fsync policy to the just-appended record.
func (s *Store) maybeSyncLocked() error {
	switch s.opts.Fsync {
	case FsyncAlways:
		return s.syncLocked()
	case FsyncInterval:
		now := s.clock.Now()
		if now.Sub(s.lastSync) >= syncInterval {
			return s.syncLocked()
		}
	}
	return nil
}

func (s *Store) syncLocked() error {
	if !s.dirty {
		return nil
	}
	if err := s.live.Sync(); err != nil {
		return err
	}
	s.dirty = false
	s.lastSync = s.clock.Now()
	s.fsyncsC.Inc()
	return nil
}

// Sync forces the live file to stable storage regardless of policy.
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.crashed {
		return ErrCrashed
	}
	return s.syncLocked()
}

// Snapshot compacts the journal now: the live state becomes the head of
// a new live file (temp file + fsync + rename, sealed by a trailer
// record), and the file it supersedes is deleted in the background.
func (s *Store) Snapshot() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.crashed {
		return ErrCrashed
	}
	if s.err != nil {
		return s.err
	}
	if err := s.snapshotLocked(); err != nil {
		return s.fail(err)
	}
	return nil
}

// snapshotLocked starts the next epoch: its file, named for the current
// seq, holds the folded state and takes every later append. The head's
// write, fsync and rename and the directory fsync stay under the lock;
// the superseded file's unlink does not.
func (s *Store) snapshotLocked() error {
	f, size, err := writeHead(s.opts.Dir, s.seq, s.state)
	if err != nil {
		return err
	}
	if s.crashAt("head written") {
		f.Close()
		return ErrCrashed
	}
	name := epochName(s.seq)
	if err := os.Rename(f.Name(), filepath.Join(s.opts.Dir, name)); err != nil {
		f.Close()
		os.Remove(f.Name())
		return err
	}
	syncDir(s.opts.Dir)
	if s.crashAt("head renamed") {
		f.Close()
		return ErrCrashed
	}
	if err := s.syncLocked(); err != nil {
		f.Close()
		return err
	}
	if err := s.live.Close(); err != nil {
		f.Close()
		return err
	}
	// Compacting twice at one seq renames over the live file itself.
	if s.liveName != name {
		s.retire(s.liveName)
	}
	s.live, s.liveName, s.liveBytes = f, name, size
	s.snapSeq = s.seq
	s.snapCount = s.state.liveRecords()
	s.snapAt = s.clock.Now()
	s.hasSnap = true
	s.sinceSnap = 0
	s.snapshotsC.Inc()
	return nil
}

// crashAt runs the compaction hook at step; true means the simulated
// process died there.
func (s *Store) crashAt(step string) bool {
	if s.compactHook == nil || !s.compactHook(step) {
		return false
	}
	s.crashed = true
	return true
}

// retire hands a superseded file to the background deleter. At most one
// deleter runs: it starts when the list turns non-empty and exits once it
// is empty. A file it never reaches is removed by the next boot.
func (s *Store) retire(name string) {
	s.delMu.Lock()
	defer s.delMu.Unlock()
	s.doomed = append(s.doomed, name)
	if len(s.doomed) == 1 {
		s.deleter.Add(1)
		go s.unlinkDoomed()
	}
}

// unlinkDoomed is the deleter. A file stays listed until its unlink
// returns, so a retire meanwhile never starts a second deleter.
func (s *Store) unlinkDoomed() {
	defer s.deleter.Done()
	if s.holdDeleter != nil {
		s.holdDeleter()
	}
	s.delMu.Lock()
	defer s.delMu.Unlock()
	for len(s.doomed) > 0 {
		name := s.doomed[0]
		s.delMu.Unlock()
		_ = os.Remove(filepath.Join(s.opts.Dir, name))
		s.delMu.Lock()
		s.doomed = s.doomed[1:]
	}
}

// State returns a deep copy of the recovered/live state; consumers replay
// it into their registries without holding the store lock. History is the
// exception: it is shared, not copied (see History).
func (s *Store) State() *State {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.state.clone()
}

// History returns the telemetry history recovered at Open. A durable site
// samples into it, so snapshots dump the rings the sampler writes.
func (s *Store) History() *rrd.Store { return s.state.History }

// Status summarizes the store for admin surfaces.
func (s *Store) Status() Status {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Status{
		Dir:             s.opts.Dir,
		LastSeq:         s.seq,
		WALBytes:        s.liveBytes,
		LiveRecords:     s.state.liveRecords(),
		SnapshotSeq:     s.snapSeq,
		SnapshotRecords: s.snapCount,
		HasSnapshot:     s.hasSnap,
		ReplayDuration:  s.replayDur,
		ReplayRecords:   s.replayRecords,
		TruncatedBytes:  s.truncatedTotal,
		Appended:        s.appended,
	}
	if s.hasSnap {
		st.SnapshotAge = s.clock.Now().Sub(s.snapAt)
		s.snapAgeG.Set(int64(st.SnapshotAge / time.Second))
	}
	if s.err != nil {
		st.Err = s.err.Error()
	}
	if s.crashed {
		st.Err = ErrCrashed.Error()
	}
	return st
}

// Close flushes and closes the live file and waits for the deleter. The
// store is unusable afterwards; re-Open the directory to resume.
func (s *Store) Close() error {
	defer s.deleter.Wait()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.live == nil {
		return nil
	}
	var err error
	if !s.crashed {
		err = s.syncLocked()
	}
	if cerr := s.live.Close(); err == nil {
		err = cerr
	}
	s.live = nil
	return err
}

// --- journaling -------------------------------------------------------
//
// A site journals every mutation through one method per record kind. Each
// returns Append's error, which is also sticky, counted on
// glare_store_append_errors_total and shown in Status; the site's
// replication counts the owner's copy toward quorum only when it is nil.
// On a nil store every method does nothing and reports success, so a
// memory-only site makes the same calls. PutEntry encodes doc in place
// and never keeps it.

// log appends rec, or does nothing on a nil store.
func (s *Store) log(rec Record) error {
	if s == nil {
		return nil
	}
	return s.Append(rec)
}

// PutEntry journals an upsert of a registry entry's full property
// document.
func (s *Store) PutEntry(reg, key string, doc *xmlutil.Node, lut, term time.Time) error {
	if s == nil {
		return nil
	}
	return s.Append(Record{Op: OpPut, Reg: reg, Key: key, Doc: doc.String(), LUT: lut, Term: term})
}

// DeleteEntry journals a registry entry's removal.
func (s *Store) DeleteEntry(reg, key string) error {
	return s.log(Record{Op: OpDelete, Reg: reg, Key: key})
}

// AcquireLease journals a granted ticket.
func (s *Store) AcquireLease(t lease.Ticket) error {
	return s.log(Record{Op: OpLeaseAcquire, Ticket: &t})
}

// ReleaseLease journals an early release.
func (s *Store) ReleaseLease(id uint64) error {
	return s.log(Record{Op: OpLeaseRelease, ID: id})
}

// LimitLease journals a shared-concurrency bound.
func (s *Store) LimitLease(deployment string, max int) error {
	return s.log(Record{Op: OpLeaseLimit, Key: deployment, Limit: max})
}

// RecordStep journals one completed build step.
func (s *Store) RecordStep(st DeployStep) error {
	return s.log(Record{Op: OpDeployStep, Key: st.Type, Deploy: &st})
}

// ClearSteps journals the end of a type's build — completion or rollback
// — dropping its checkpoints.
func (s *Store) ClearSteps(typeName string) error {
	return s.log(Record{Op: OpDeployClear, Key: typeName})
}

// CreateSeries journals a new telemetry-history series definition.
func (s *Store) CreateSeries(def rrd.SeriesDef) error {
	return s.log(Record{Op: OpHistoryCreate, Key: def.Name, HistoryDef: &def})
}

// AppendBatch journals one history-sampler tick's raw samples. Snapshot
// compaction turns the batches into fixed-size ring dumps, so a site's
// history costs bounded disk no matter how long it runs.
func (s *Store) AppendBatch(b rrd.Batch) error {
	return s.log(Record{Op: OpHistoryBatch, HistoryBatch: &b})
}

// PutBlob journals a verified blob's ingest into the content-addressed
// artifact store, so a restarted site can re-offer every blob it held
// without re-fetching a byte.
func (s *Store) PutBlob(b CASBlob) error {
	return s.log(Record{Op: OpCASPut, Key: b.ID(), CAS: &b})
}

// DeleteBlob journals a blob leaving the artifact store (eviction or
// purge).
func (s *Store) DeleteBlob(id string) error {
	return s.log(Record{Op: OpCASDelete, Key: id})
}

// RegistryLog journals one registry's puts into the store: the journal
// the replica Holder's factory mints for shadow registries, which journal
// tombstones as puts too. Like LeaseLog it drops Append's error, which its
// interface cannot return.
type RegistryLog struct {
	s   *Store
	reg string
}

// RegistryJournal returns the journal for the named registry.
func (s *Store) RegistryJournal(reg string) *RegistryLog {
	return &RegistryLog{s: s, reg: reg}
}

// RecordPut journals an upsert of the full property document.
func (l *RegistryLog) RecordPut(key string, doc *xmlutil.Node, lut, term time.Time) {
	_ = l.s.PutEntry(l.reg, key, doc, lut, term)
}

// LeaseLog journals a lease service's mutations into the store. Sites
// journal leases through their site journal; this forwarder stays for
// bench/layers.go's lease probe.
type LeaseLog struct{ s *Store }

// LeaseJournal returns the lease journal forwarder.
func (s *Store) LeaseJournal() *LeaseLog { return &LeaseLog{s: s} }

// RecordAcquire journals a granted ticket.
func (l *LeaseLog) RecordAcquire(t lease.Ticket) { _ = l.s.AcquireLease(t) }

// RecordRelease journals an early release.
func (l *LeaseLog) RecordRelease(id uint64) { _ = l.s.ReleaseLease(id) }

// RecordLimit journals a shared-concurrency bound.
func (l *LeaseLog) RecordLimit(deployment string, max int) { _ = l.s.LimitLease(deployment, max) }
