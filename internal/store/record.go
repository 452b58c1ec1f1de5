package store

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math/bits"
	"time"

	"glare/internal/lease"
	"glare/internal/rrd"
)

// Registry names the store journals under, and the names the replication
// wire carries. The store itself is agnostic to what a registry holds;
// these constants keep the RDM wiring, the recovery path and the replica
// sets agreeing on the names. RegLease names lease tickets on the
// replication wire only: the store journals leases as lease records.
const (
	RegATR   = "atr"
	RegADR   = "adr"
	RegLease = "lease"
)

// Op is the kind of one journaled mutation.
type Op uint8

const (
	// OpPut upserts a registry entry (full property document).
	OpPut Op = iota + 1
	// OpDelete removes a registry entry.
	OpDelete
	// OpLeaseAcquire installs a lease ticket.
	OpLeaseAcquire
	// OpLeaseRelease removes a lease ticket by ID.
	OpLeaseRelease
	// OpLeaseLimit sets a deployment's shared-lease concurrency bound.
	OpLeaseLimit
	// opSnapSeal terminates a file's head (the compacted state); a head
	// without its seal, or sealed for another seq, is not trusted.
	opSnapSeal
	// OpDeployStep checkpoints one completed deployment step. Appended
	// after opSnapSeal so the wire values of the earlier ops — already on
	// disk in existing journals — stay stable.
	OpDeployStep
	// OpDeployClear drops every checkpoint of a type's build: the build
	// completed (and was registered) or was rolled back.
	OpDeployClear
	// OpHistoryCreate declares a telemetry-history series (rrd). Appended
	// after OpDeployClear so existing journals keep their wire values.
	OpHistoryCreate
	// OpHistoryBatch appends one history-sampler tick's raw samples; the
	// WAL form of history between snapshots.
	OpHistoryBatch
	// OpHistorySeries restores one series' full ring dump; the snapshot
	// form of history (fixed-size, so snapshots stay bounded no matter how
	// many batches the WAL absorbed).
	OpHistorySeries
	// OpCASPut records a verified blob entering the site's content-
	// addressed artifact store. Appended after OpHistorySeries so existing
	// journals keep their wire values.
	OpCASPut
	// OpCASDelete records a CAS entry leaving the store (eviction or
	// verify-failure purge); Key carries the "algo:sum" blob ID.
	OpCASDelete
)

// String renders the op name.
func (o Op) String() string {
	switch o {
	case OpPut:
		return "put"
	case OpDelete:
		return "delete"
	case OpLeaseAcquire:
		return "lease-acquire"
	case OpLeaseRelease:
		return "lease-release"
	case OpLeaseLimit:
		return "lease-limit"
	case opSnapSeal:
		return "snap-seal"
	case OpDeployStep:
		return "deploy-step"
	case OpDeployClear:
		return "deploy-clear"
	case OpHistoryCreate:
		return "history-create"
	case OpHistoryBatch:
		return "history-batch"
	case OpHistorySeries:
		return "history-series"
	case OpCASPut:
		return "cas-put"
	case OpCASDelete:
		return "cas-delete"
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Record is one journaled mutation. Registry puts carry the whole property
// document: registries mutate documents in place, so re-journaling the
// full document after each mutation makes every record self-contained and
// replay a pure last-write-wins fold — no partial-update merge logic can
// go wrong during recovery.
type Record struct {
	Seq uint64 `json:"seq"`
	Op  Op     `json:"op"`
	// Reg is the registry name (RegATR, RegADR) for put/delete records;
	// empty for lease records.
	Reg string `json:"reg,omitempty"`
	// Key is the resource key (put/delete) or the deployment name
	// (lease-limit).
	Key string `json:"key,omitempty"`
	// Doc is the XML text of the resource property document (put only).
	Doc string `json:"doc,omitempty"`
	// LUT is the resource's LastUpdateTime; preserved across recovery so
	// cache revival and anti-entropy keep working after a restart.
	LUT time.Time `json:"lut,omitempty"`
	// Term is the resource's scheduled termination time (zero = never).
	Term time.Time `json:"term,omitempty"`
	// Ticket is the acquired lease (lease-acquire only).
	Ticket *lease.Ticket `json:"ticket,omitempty"`
	// ID is the released ticket ID (lease-release only).
	ID uint64 `json:"id,omitempty"`
	// Limit is the shared-lease bound (lease-limit only).
	Limit int `json:"limit,omitempty"`
	// Deploy is the checkpoint payload (deploy-step only); Key carries the
	// activity type name for both deploy-step and deploy-clear.
	Deploy *DeployStep `json:"deploy,omitempty"`
	// HistoryDef declares a history series (history-create only); Key
	// carries the series name.
	HistoryDef *rrd.SeriesDef `json:"hdef,omitempty"`
	// HistoryBatch is one sampler tick's raw values (history-batch only).
	HistoryBatch *rrd.Batch `json:"hbatch,omitempty"`
	// HistorySeries is one series' full ring dump (history-series only).
	HistorySeries *rrd.SeriesDump `json:"hseries,omitempty"`
	// CAS is the blob metadata (cas-put only); Key carries the "algo:sum"
	// blob ID for both cas-put and cas-delete.
	CAS *CASBlob `json:"cas,omitempty"`
}

// CASBlob is one content-addressed artifact-store entry as journaled. The
// simulated grid moves no real bytes, so the WAL form is the metadata the
// CAS needs to re-offer the blob after a restart: size for budget and
// transfer-cost accounting, the filesystem fingerprint for
// materialization, and the content sum observed at ingest.
type CASBlob struct {
	Algo     string    `json:"algo"`
	Sum      string    `json:"sum"`
	Actual   string    `json:"actual,omitempty"` // observed content sum; equals Sum for healthy copies
	Size     int64     `json:"size"`
	MD5      string    `json:"md5,omitempty"`
	Artifact string    `json:"artifact,omitempty"`
	URL      string    `json:"url,omitempty"`
	Added    time.Time `json:"added,omitempty"`
}

// ID returns the blob's "algo:sum" key.
func (b CASBlob) ID() string { return b.Algo + ":" + b.Sum }

// DeployStep is one completed step of an on-demand build, journaled so an
// interrupted deployment can resume at the first incomplete step after a
// site restart. The simulated site filesystem is memory-only (DESIGN §10),
// so a checkpoint is self-contained: it carries every filesystem entry and
// every piece of site side-state the step produced, letting resume
// re-materialize the step's effects at zero clock and transfer cost.
type DeployStep struct {
	// Type is the activity type being built; Build the deploy-file name.
	Type  string `json:"type"`
	Build string `json:"build"`
	// Step is the deploy-file step name; Index its position in the
	// topological order. A re-journaled index truncates any stale tail.
	Step  string `json:"step"`
	Index int    `json:"index"`
	// Transfer marks a globus-url-copy step; MD5 is the deploy-file's
	// declared md5sum, so resume can prove the cached download is the one
	// the (possibly updated) deploy-file still wants.
	Transfer bool   `json:"transfer,omitempty"`
	MD5      string `json:"md5,omitempty"`
	// Files are the filesystem entries the step created or changed;
	// Removed the paths it deleted.
	Files   []DeployFile `json:"files,omitempty"`
	Removed []string     `json:"removed,omitempty"`
	// Side-state the step produced on the site: archive unpacks, configure
	// prefixes and deployed service endpoints.
	Unpacks  []DeployUnpack  `json:"unpacks,omitempty"`
	Prefixes []DeployPrefix  `json:"prefixes,omitempty"`
	Services []DeployService `json:"services,omitempty"`
}

// DeployFile is one filesystem entry a step produced. New marks entries
// whose path did not exist before the step — the set rollback removes.
type DeployFile struct {
	Path     string `json:"path"`
	Kind     int    `json:"kind"`
	Size     int64  `json:"size,omitempty"`
	MD5      string `json:"md5,omitempty"`
	Artifact string `json:"artifact,omitempty"`
	New      bool   `json:"new,omitempty"`
}

// DeployUnpack records that a step expanded an artifact's archive into a
// directory (resolved back through the artifact repo on resume).
type DeployUnpack struct {
	Dir      string `json:"dir"`
	Artifact string `json:"artifact"`
}

// DeployPrefix records a configure run's install prefix for a source dir.
type DeployPrefix struct {
	Dir    string `json:"dir"`
	Prefix string `json:"prefix"`
}

// DeployService records a service endpoint the step brought up.
type DeployService struct {
	Name string `json:"name"`
	Home string `json:"home"`
}

// A record's payload is in one of two encodings, told apart by its first
// byte. Registry records (put and delete), nearly every record a site
// appends, use a binary layout led by binaryVersion:
//
//	0x01, op byte, uvarint seq,
//	uvarint length + bytes of reg, key and doc,
//	LUT, Term: 0 for the zero time, or 1, varint Unix(), uvarint Nanosecond()
//
// Every other record is JSON, which starts with '{'. Files written before
// the binary layout existed hold JSON registry records too; both decode.
const binaryVersion = 0x01

// binary reports whether the op's records use the binary layout.
func (o Op) binary() bool { return o == OpPut || o == OpDelete }

// encode returns the record's payload.
func (r Record) encode() ([]byte, error) {
	if r.Op.binary() {
		return r.appendBinary(make([]byte, 0, r.binarySize())), nil
	}
	return json.Marshal(r)
}

// binarySize is the length of the record's binary payload.
func (r Record) binarySize() int {
	return 2 + uvarintLen(r.Seq) +
		uvarintLen(uint64(len(r.Reg))) + len(r.Reg) +
		uvarintLen(uint64(len(r.Key))) + len(r.Key) +
		uvarintLen(uint64(len(r.Doc))) + len(r.Doc) +
		timeSize(r.LUT) + timeSize(r.Term)
}

// appendBinary appends the record's binary payload to b.
func (r Record) appendBinary(b []byte) []byte {
	b = append(b, binaryVersion, byte(r.Op))
	b = binary.AppendUvarint(b, r.Seq)
	for _, s := range [...]string{r.Reg, r.Key, r.Doc} {
		b = binary.AppendUvarint(b, uint64(len(s)))
		b = append(b, s...)
	}
	return appendTime(appendTime(b, r.LUT), r.Term)
}

// appendTime writes a time as exact seconds and nanoseconds, so any
// instant survives, not only those UnixNano can hold; the location is
// not kept.
func appendTime(b []byte, t time.Time) []byte {
	if t.IsZero() {
		return append(b, 0)
	}
	b = binary.AppendVarint(append(b, 1), t.Unix())
	return binary.AppendUvarint(b, uint64(t.Nanosecond()))
}

func timeSize(t time.Time) int {
	if t.IsZero() {
		return 1
	}
	return 1 + uvarintLen(zigzag(t.Unix())) + uvarintLen(uint64(t.Nanosecond()))
}

func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

// zigzag maps a varint's value to the uvarint it is written as.
func zigzag(x int64) uint64 { return uint64(x<<1) ^ uint64(x>>63) }

// binaryReader decodes a binary payload. It accepts only what
// appendBinary writes, so a payload it decodes re-encodes to the same
// bytes; the first malformed field sets err.
type binaryReader struct {
	b   []byte
	err error
}

func (d *binaryReader) fail() { d.b, d.err = nil, errors.New("store: malformed binary record") }

func (d *binaryReader) byte() byte {
	if len(d.b) == 0 {
		d.fail()
		return 0
	}
	c := d.b[0]
	d.b = d.b[1:]
	return c
}

func (d *binaryReader) uvarint() uint64 {
	x, n := binary.Uvarint(d.b)
	if n <= 0 || n != uvarintLen(x) {
		d.fail()
		return 0
	}
	d.b = d.b[n:]
	return x
}

func (d *binaryReader) string() string {
	n := d.uvarint()
	if n > uint64(len(d.b)) {
		d.fail()
		return ""
	}
	s := string(d.b[:n])
	d.b = d.b[n:]
	return s
}

func (d *binaryReader) time() time.Time {
	switch d.byte() {
	case 0:
		return time.Time{}
	case 1:
		u := d.uvarint()
		sec := int64(u>>1) ^ -int64(u&1)
		nsec := d.uvarint()
		t := time.Unix(sec, int64(nsec)).UTC()
		// An out-of-range nanosecond would be carried into the seconds,
		// and the zero instant is written as absent.
		if nsec < 1e9 && !t.IsZero() {
			return t
		}
	}
	d.fail()
	return time.Time{}
}

func decodeBinary(b []byte) (Record, error) {
	d := binaryReader{b: b[1:]}
	r := Record{Op: Op(d.byte())}
	r.Seq = d.uvarint()
	r.Reg, r.Key, r.Doc = d.string(), d.string(), d.string()
	r.LUT, r.Term = d.time(), d.time()
	if d.err == nil && (!r.Op.binary() || len(d.b) > 0) {
		d.fail()
	}
	if d.err != nil {
		return Record{}, d.err
	}
	return r, nil
}

// decodeRecord decodes a payload in either encoding.
func decodeRecord(b []byte) (Record, error) {
	if len(b) > 0 && b[0] == binaryVersion {
		return decodeBinary(b)
	}
	var r Record
	if err := json.Unmarshal(b, &r); err != nil {
		return Record{}, err
	}
	// A checkpoint's Index is a slice position; no writer journals a
	// negative one, so such a record is as damaged as one that does not
	// parse.
	if r.Op == OpDeployStep && r.Deploy != nil && r.Deploy.Index < 0 {
		return Record{}, fmt.Errorf("store: deploy-step record with index %d", r.Deploy.Index)
	}
	return r, nil
}

// Entry is one live registry entry in the recovered state.
type Entry struct {
	Doc  string
	LUT  time.Time
	Term time.Time
}

// LeaseState is the recovered reservation-service state.
type LeaseState struct {
	// Tickets holds every journaled, unreleased ticket — including ones
	// that have expired by recovery time; the lease service drops those
	// during Restore so they are never resurrected.
	Tickets map[uint64]lease.Ticket
	// Limits holds per-deployment shared-lease bounds.
	Limits map[string]int
	// MaxID is the highest ticket ID ever journaled, so recovered services
	// never reissue an ID a client may still hold.
	MaxID uint64
}

// State is the materialized view of the journal: what a site's registries
// and lease service looked like at the last appended record.
type State struct {
	// Registries is filled only in the copies Store.State returns; the
	// store's own state keeps frames instead.
	Registries map[string]map[string]Entry
	// frames holds each live registry key's last put, as the exact frame
	// that was appended or read, so a compaction head copies it as is.
	frames map[string]map[string][]byte
	Leases LeaseState
	// Deploys maps an activity type name to the checkpointed steps of its
	// interrupted build, in step order.
	Deploys map[string][]DeployStep
	// History is the site's telemetry history, present from Open; a
	// durable site's sampler writes these rings directly (Store.History).
	History *rrd.Store
	// CAS maps "algo:sum" blob IDs to held artifact-store entries.
	CAS map[string]CASBlob
}

func newState(history *rrd.Store) *State {
	return &State{
		Registries: map[string]map[string]Entry{},
		frames:     map[string]map[string][]byte{},
		Leases: LeaseState{
			Tickets: map[uint64]lease.Ticket{},
			Limits:  map[string]int{},
		},
		Deploys: map[string][]DeployStep{},
		History: history,
		CAS:     map[string]CASBlob{},
	}
}

// apply folds one record, whose frame is frame, into the state.
func (st *State) apply(r Record, frame []byte) {
	switch r.Op {
	case OpPut:
		reg := st.frames[r.Reg]
		if reg == nil {
			reg = map[string][]byte{}
			st.frames[r.Reg] = reg
		}
		reg[r.Key] = frame
	case OpDelete:
		delete(st.frames[r.Reg], r.Key)
	case OpLeaseAcquire:
		if r.Ticket != nil {
			st.Leases.Tickets[r.Ticket.ID] = *r.Ticket
			if r.Ticket.ID > st.Leases.MaxID {
				st.Leases.MaxID = r.Ticket.ID
			}
		}
	case OpLeaseRelease:
		delete(st.Leases.Tickets, r.ID)
	case OpLeaseLimit:
		if r.Limit <= 0 {
			delete(st.Leases.Limits, r.Key)
		} else {
			st.Leases.Limits[r.Key] = r.Limit
		}
	case OpDeployStep:
		if r.Deploy != nil {
			d := *r.Deploy
			list := st.Deploys[d.Type]
			// A step re-run after divergence truncates the stale tail of
			// the previous attempt before taking its slot.
			if d.Index < len(list) {
				list = list[:d.Index]
			}
			st.Deploys[d.Type] = append(list, d)
		}
	case OpDeployClear:
		delete(st.Deploys, r.Key)
	// History records rebuild the rings during recovery. On a live append
	// the fold is a no-op, because the writer updated these same rings
	// before journaling: Create with an equal definition does nothing, and
	// Update at or before a series' last timestamp is ErrPast (which also
	// drops a WAL batch a snapshot already holds).
	case OpHistoryCreate:
		if r.HistoryDef != nil {
			_ = st.History.Create(*r.HistoryDef)
		}
	case OpHistoryBatch:
		if r.HistoryBatch != nil {
			for _, smp := range r.HistoryBatch.Samples {
				_ = st.History.Update(smp.Name, r.HistoryBatch.TS, smp.Value)
			}
		}
	case OpHistorySeries:
		if r.HistorySeries != nil {
			_ = st.History.RestoreSeries(*r.HistorySeries)
		}
	case OpCASPut:
		if r.CAS != nil {
			if st.CAS == nil {
				st.CAS = map[string]CASBlob{}
			}
			st.CAS[r.CAS.ID()] = *r.CAS
		}
	case OpCASDelete:
		delete(st.CAS, r.Key)
	// A head's seal carries the highest ticket ID ever issued, which may
	// belong to a released ticket the head no longer holds.
	case opSnapSeal:
		st.Leases.MaxID = max(st.Leases.MaxID, r.ID)
	}
}

// liveRecords counts the records a snapshot of this state would hold.
func (st *State) liveRecords() int {
	n := 0
	for _, reg := range st.frames {
		n += len(reg)
	}
	n += len(st.Leases.Tickets) + len(st.Leases.Limits)
	for _, steps := range st.Deploys {
		n += len(steps)
	}
	n += st.History.Len()
	n += len(st.CAS)
	return n
}

// records flattens the state's non-registry part back into
// self-contained records, the form a head holds them in beside the
// registry frames. Iteration order is not significant: replaying a head
// is a fold over independent keys.
func (st *State) records() []Record {
	var out []Record
	for _, t := range st.Leases.Tickets {
		t := t
		out = append(out, Record{Op: OpLeaseAcquire, Ticket: &t})
	}
	for dep, max := range st.Leases.Limits {
		out = append(out, Record{Op: OpLeaseLimit, Key: dep, Limit: max})
	}
	for _, steps := range st.Deploys {
		// Within a type the slice order is the step order; replay relies
		// on each record's Index, so emitting types in any order is fine.
		for i := range steps {
			d := steps[i]
			out = append(out, Record{Op: OpDeployStep, Key: d.Type, Deploy: &d})
		}
	}
	// One fixed-size dump per series: however many batches the WAL
	// absorbed, the snapshot holds exactly the ring contents.
	for _, d := range st.History.Dump() {
		d := d
		out = append(out, Record{Op: OpHistorySeries, Key: d.Def.Name, HistorySeries: &d})
	}
	for _, b := range st.CAS {
		b := b
		out = append(out, Record{Op: OpCASPut, Key: b.ID(), CAS: &b})
	}
	return out
}

// clone deep-copies the state so callers can consume it without racing
// the store's own apply path, decoding each live frame into its Entry.
// History is shared, not copied: it is the live history the site samples
// into.
func (st *State) clone() *State {
	out := newState(st.History)
	for reg, frames := range st.frames {
		m := make(map[string]Entry, len(frames))
		for k, f := range frames {
			// Every kept frame decoded when it was read or encoded.
			if r, err := decodeRecord(f[frameHeader:]); err == nil {
				m[k] = Entry{Doc: r.Doc, LUT: r.LUT, Term: r.Term}
			}
		}
		out.Registries[reg] = m
	}
	for id, t := range st.Leases.Tickets {
		out.Leases.Tickets[id] = t
	}
	for dep, max := range st.Leases.Limits {
		out.Leases.Limits[dep] = max
	}
	out.Leases.MaxID = st.Leases.MaxID
	for typ, steps := range st.Deploys {
		out.Deploys[typ] = append([]DeployStep(nil), steps...)
	}
	for id, b := range st.CAS {
		out.CAS[id] = b
	}
	return out
}
