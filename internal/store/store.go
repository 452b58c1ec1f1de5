// Package store is the durable registry store: an append-only,
// CRC32-framed write-ahead log with segment rotation, periodic compacting
// snapshots, a configurable fsync policy, and corruption-tolerant crash
// recovery.
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
// Recovery never fails the boot on a damaged log: scanning truncates at
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

// Defaults.
const (
	DefaultSegmentMaxBytes = 1 << 20
	DefaultSnapshotEvery   = 1024
)

// syncInterval bounds the loss window under the FsyncInterval policy.
const syncInterval = 100 * time.Millisecond

// Options configures a store.
type Options struct {
	// Dir is the per-site data directory; created if missing.
	Dir string
	// Fsync is the sync policy (default FsyncInterval).
	Fsync FsyncPolicy
	// SegmentMaxBytes rotates the active WAL segment past this size
	// (default DefaultSegmentMaxBytes).
	SegmentMaxBytes int64
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
	Segments        int
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

	seg      *os.File
	segIndex uint64
	segBytes int64
	segCount int

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

	// Telemetry; nil (no-op) until SetTelemetry.
	appendsC, fsyncsC, truncBytesC, snapshotsC, appendErrsC *telemetry.Counter
	segG, snapAgeG, replayMsG, liveG                        *telemetry.Gauge
}

// Open opens (or creates) the store at opts.Dir and runs crash recovery:
// the newest intact snapshot is loaded, WAL segments are replayed on top,
// and the first torn or bad-checksum record truncates the log — the boot
// never fails on a damaged tail, it recovers the longest valid prefix and
// re-opens appendable.
func Open(opts Options) (*Store, error) {
	if opts.Dir == "" {
		return nil, fmt.Errorf("store: Options.Dir is required")
	}
	if opts.Clock == nil {
		opts.Clock = simclock.Real
	}
	if opts.SegmentMaxBytes <= 0 {
		opts.SegmentMaxBytes = DefaultSegmentMaxBytes
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
		return nil, err
	}
	return s, nil
}

// recover rebuilds state from disk and leaves the store appendable.
func (s *Store) recover() error {
	start := time.Now()
	segments, snapshots, err := listDir(s.opts.Dir)
	if err != nil {
		return err
	}

	// Newest intact snapshot wins; torn or corrupt ones are skipped (they
	// can only exist if the crash hit mid-snapshot, in which case the WAL
	// still holds everything the snapshot was compacting).
	for i := len(snapshots) - 1; i >= 0; i-- {
		st, count, ok := loadSnapshot(filepath.Join(s.opts.Dir, snapshots[i]))
		if !ok {
			continue
		}
		s.state = st
		s.snapSeq = snapshotSeq(snapshots[i])
		s.snapCount = count
		s.seq = s.snapSeq
		s.hasSnap = true
		s.snapAt = s.clock.Now()
		break
	}

	// Replay segments in order, folding records newer than the snapshot.
	// A tear truncates its segment and voids everything after it: bytes
	// past a torn frame have no defined order.
	truncatedAt := -1
	for i, name := range segments {
		path := filepath.Join(s.opts.Dir, name)
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		res := scanFrames(data)
		for _, rec := range res.records {
			if rec.Seq <= s.snapSeq || rec.Op == opSnapSeal {
				continue
			}
			s.state.apply(rec)
			if rec.Seq > s.seq {
				s.seq = rec.Seq
			}
			s.replayRecords++
		}
		if res.torn {
			s.truncatedTotal += int64(len(data)) - res.good
			if err := truncateFile(path, res.good); err != nil {
				return err
			}
			truncatedAt = i
			break
		}
	}
	if truncatedAt >= 0 && truncatedAt+1 < len(segments) {
		for _, name := range segments[truncatedAt+1:] {
			fi, err := os.Stat(filepath.Join(s.opts.Dir, name))
			if err == nil {
				s.truncatedTotal += fi.Size()
			}
		}
		removeFiles(s.opts.Dir, segments[truncatedAt+1:])
		segments = segments[:truncatedAt+1]
	}

	// Re-open the last segment for appending, or start a fresh one.
	if len(segments) > 0 {
		last := segments[len(segments)-1]
		s.segIndex = segmentIndex(last)
		f, err := os.OpenFile(filepath.Join(s.opts.Dir, last), os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return err
		}
		fi, err := f.Stat()
		if err != nil {
			f.Close()
			return err
		}
		s.seg, s.segBytes, s.segCount = f, fi.Size(), len(segments)
	} else {
		if err := s.openSegment(1); err != nil {
			return err
		}
		s.segCount = 1
	}
	s.replayDur = time.Since(start)
	return nil
}

// openSegment creates and activates segment index.
func (s *Store) openSegment(index uint64) error {
	f, err := os.OpenFile(filepath.Join(s.opts.Dir, segmentName(index)),
		os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return err
	}
	s.seg, s.segIndex, s.segBytes = f, index, 0
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
	s.segG = tel.Gauge("glare_store_segments")
	s.snapAgeG = tel.Gauge("glare_store_snapshot_age_seconds")
	s.replayMsG = tel.Gauge("glare_store_replay_ms")
	s.liveG = tel.Gauge("glare_store_live_records")
	// Recovery ran before instrumentation existed; backfill its outcome.
	s.replayMsG.Set(s.replayDur.Milliseconds())
	s.truncBytesC.Add(uint64(s.truncatedTotal))
	s.segG.Set(int64(s.segCount))
	s.liveG.Set(int64(s.state.liveRecords()))
}

// Append journals one record: it is assigned the next sequence number,
// framed, appended to the active segment, fsynced per policy, and folded
// into the in-memory state. Automatic compaction runs when SnapshotEvery
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
	payload, err := rec.encode()
	if err != nil {
		s.seq--
		return s.fail(err)
	}
	frame := encodeFrame(payload)
	if s.opts.AppendHook != nil {
		if keep, crash := s.opts.AppendHook(frame); crash {
			if keep > len(frame) {
				keep = len(frame)
			}
			_, _ = s.seg.Write(frame[:keep])
			s.crashed = true
			return ErrCrashed
		}
	}
	if _, err := s.seg.Write(frame); err != nil {
		return s.fail(err)
	}
	s.segBytes += int64(len(frame))
	s.dirty = true
	s.state.apply(rec)
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
	} else if s.segBytes >= s.opts.SegmentMaxBytes {
		if err := s.rotateLocked(); err != nil {
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
	if err := s.seg.Sync(); err != nil {
		return err
	}
	s.dirty = false
	s.lastSync = s.clock.Now()
	s.fsyncsC.Inc()
	return nil
}

// Sync forces the active segment to stable storage regardless of policy.
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.crashed {
		return ErrCrashed
	}
	return s.syncLocked()
}

// rotateLocked seals the active segment and starts the next one.
func (s *Store) rotateLocked() error {
	if err := s.syncLocked(); err != nil {
		return err
	}
	if err := s.seg.Close(); err != nil {
		return err
	}
	if err := s.openSegment(s.segIndex + 1); err != nil {
		return err
	}
	s.segCount++
	s.segG.Set(int64(s.segCount))
	syncDir(s.opts.Dir)
	return nil
}

// Snapshot compacts the journal now: the live state is written to a new
// snapshot file (temp-file + rename, sealed by a trailer record) and every
// WAL segment it covers is deleted.
func (s *Store) Snapshot() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.crashed {
		return ErrCrashed
	}
	if s.err != nil {
		return s.err
	}
	return s.snapshotLocked()
}

func (s *Store) snapshotLocked() error {
	if err := writeSnapshot(s.opts.Dir, s.seq, s.state); err != nil {
		return err
	}
	// The snapshot covers everything appended so far, so the entire WAL is
	// compacted away and a fresh segment starts the next epoch.
	if err := s.syncLocked(); err != nil {
		return err
	}
	if err := s.seg.Close(); err != nil {
		return err
	}
	segments, snapshots, err := listDir(s.opts.Dir)
	if err != nil {
		return err
	}
	removeFiles(s.opts.Dir, segments)
	var stale []string
	for _, name := range snapshots {
		if snapshotSeq(name) < s.seq {
			stale = append(stale, name)
		}
	}
	removeFiles(s.opts.Dir, stale)
	if err := s.openSegment(s.segIndex + 1); err != nil {
		return err
	}
	syncDir(s.opts.Dir)
	s.segCount = 1
	s.snapSeq = s.seq
	s.snapCount = s.state.liveRecords()
	s.snapAt = s.clock.Now()
	s.hasSnap = true
	s.sinceSnap = 0
	s.snapshotsC.Inc()
	s.segG.Set(int64(s.segCount))
	return nil
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
		Segments:        s.segCount,
		WALBytes:        s.walBytesLocked(),
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

// walBytesLocked sums the on-disk WAL segment sizes.
func (s *Store) walBytesLocked() int64 {
	segments, _, err := listDir(s.opts.Dir)
	if err != nil {
		return s.segBytes
	}
	var total int64
	for _, name := range segments {
		if fi, err := os.Stat(filepath.Join(s.opts.Dir, name)); err == nil {
			total += fi.Size()
		}
	}
	return total
}

// Close flushes and closes the active segment. The store is unusable
// afterwards; re-Open the directory to resume.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.seg == nil {
		return nil
	}
	var err error
	if !s.crashed {
		err = s.syncLocked()
	}
	if cerr := s.seg.Close(); err == nil {
		err = cerr
	}
	s.seg = nil
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

// RegistryLog journals one registry's mutations into the store: the
// journal the replica Holder's factory mints for shadow registries. Like
// LeaseLog it drops Append's error, which its interface cannot return.
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

// RecordDelete journals a removal.
func (l *RegistryLog) RecordDelete(key string) { _ = l.s.DeleteEntry(l.reg, key) }

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
