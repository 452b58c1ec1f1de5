// Package rrd is a round-robin time-series database in the style of
// RRDtool: every series owns a small set of fixed-size ring archives at
// derived resolutions, so memory is bounded at Create time no matter how
// many updates arrive afterwards.
//
// GLARE uses it to keep telemetry *history* — the /metrics exposition
// answers "what is the counter now", the rrd store answers "is it
// rising". Raw samples arrive at a base step; each archive consolidates
// them into slots of Steps×step under a consolidation function
// (AVERAGE/MIN/MAX/LAST). Counter-kind series are differentiated first
// (delta/Δt), so monotone glare_*_total counters become rates per second.
//
// The store is clock-agnostic: callers pass explicit timestamps, which in
// GLARE come from the site's simclock (virtual in tests, wall clock in
// glared). Unknown slots are NaN, exactly as in RRDtool.
package rrd

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"time"
)

// DefaultStep is the base sampling period used when a store or series is
// created with a non-positive step.
const DefaultStep = 5 * time.Second

// Sentinel errors returned by Store methods. ErrPast in particular is a
// normal condition for idempotent feeds (WAL replay, rollup re-pulls) and
// callers are expected to ignore it.
var (
	ErrNoSeries  = errors.New("rrd: no such series")
	ErrNoArchive = errors.New("rrd: no archive with that consolidation function")
	ErrExists    = errors.New("rrd: series already exists with a different definition")
	ErrPast      = errors.New("rrd: update does not advance past the last sample")
	ErrBadValue  = errors.New("rrd: non-finite value")
	ErrBadDef    = errors.New("rrd: invalid series definition")
)

// CF is a consolidation function: how raw primary data points are folded
// into one archive slot.
type CF uint8

const (
	Average CF = iota
	Min
	Max
	Last
)

// String renders the RRDtool-style upper-case name.
func (c CF) String() string {
	switch c {
	case Average:
		return "AVERAGE"
	case Min:
		return "MIN"
	case Max:
		return "MAX"
	case Last:
		return "LAST"
	}
	return fmt.Sprintf("CF(%d)", uint8(c))
}

// ParseCF parses a consolidation-function name, case-insensitively.
func ParseCF(s string) (CF, error) {
	switch strings.ToUpper(strings.TrimSpace(s)) {
	case "AVERAGE", "AVG":
		return Average, nil
	case "MIN":
		return Min, nil
	case "MAX":
		return Max, nil
	case "LAST":
		return Last, nil
	}
	return Average, fmt.Errorf("rrd: unknown consolidation function %q", s)
}

// Kind tells the store how to derive primary data points from raw samples.
type Kind uint8

const (
	// Gauge samples are stored as-is.
	Gauge Kind = iota
	// Counter samples are monotone totals; the stored primary data point
	// is the rate (value delta / time delta, per second). A decrease is
	// treated as a counter reset and yields one unknown (NaN) point.
	Counter
)

// String renders the kind name.
func (k Kind) String() string {
	if k == Counter {
		return "counter"
	}
	return "gauge"
}

// ArchiveSpec declares one ring archive: Rows slots of Steps base steps
// each, consolidated under CF. A 5s base step with {Average, 12, 600}
// keeps ten hours of one-minute averages in exactly 600 slots.
type ArchiveSpec struct {
	CF    CF  `json:"cf"`
	Steps int `json:"steps"`
	Rows  int `json:"rows"`
}

// SeriesDef declares one series and its archives.
type SeriesDef struct {
	Name     string        `json:"name"`
	Kind     Kind          `json:"kind"`
	Step     time.Duration `json:"step"`
	Archives []ArchiveSpec `json:"archives"`
}

// DefaultArchives is the retention ladder used when none is configured:
// 600 slots at the base step, 600 at 10×, 1440 at 60× (a day of minutes
// when the base step is 1s), plus a MAX archive at 10× so short spikes
// survive averaging.
func DefaultArchives() []ArchiveSpec {
	return []ArchiveSpec{
		{CF: Average, Steps: 1, Rows: 600},
		{CF: Average, Steps: 10, Rows: 600},
		{CF: Average, Steps: 60, Rows: 1440},
		{CF: Max, Steps: 10, Rows: 600},
	}
}

// Point is one consolidated data point. Live marks the still-accumulating
// slot at the head of an archive, whose value may yet change.
type Point struct {
	TS   time.Time
	V    float64
	Live bool
}

// Result is the outcome of a Fetch: consolidated points from the finest
// archive that covers the requested range.
type Result struct {
	Name   string
	CF     CF
	Step   time.Duration // slot width of the chosen archive
	Points []Point
}

// archive is one live ring. cur is the absolute slot index currently
// accumulating; ring[i%Rows] holds slot i's consolidated value for the
// most recent Rows slots. first pins the oldest slot ever observed so
// fresh series do not report a full ring of NaN history.
type archive struct {
	spec    ArchiveSpec
	slotNs  int64
	ring    []float64
	cur     int64
	first   int64
	started bool
	accSum  float64
	accCnt  int
	accMin  float64
	accMax  float64
	accLast float64
	// accInf marks a slot whose sum overflowed float64: its average is
	// unknown, and accSum keeps the last finite sum.
	accInf bool
}

func newArchive(spec ArchiveSpec, step time.Duration) *archive {
	a := &archive{
		spec:   spec,
		slotNs: int64(step) * int64(spec.Steps),
		ring:   make([]float64, spec.Rows),
	}
	for i := range a.ring {
		a.ring[i] = math.NaN()
	}
	return a
}

func (a *archive) resetAcc() {
	a.accSum, a.accCnt, a.accInf = 0, 0, false
	a.accMin, a.accMax, a.accLast = 0, 0, 0
}

// consolidate folds the open accumulator into one slot value.
func (a *archive) consolidate() float64 {
	if a.accCnt == 0 {
		return math.NaN()
	}
	switch a.spec.CF {
	case Min:
		return a.accMin
	case Max:
		return a.accMax
	case Last:
		return a.accLast
	default:
		if a.accInf {
			return math.NaN()
		}
		return a.accSum / float64(a.accCnt)
	}
}

// observe feeds one primary data point (possibly NaN) at absolute time
// tsn. Slot transitions finalize the previous accumulator and NaN-fill
// any gap; a gap of a full ring wipes everything, matching RRDtool.
func (a *archive) observe(tsn int64, v float64) {
	slot := tsn / a.slotNs
	if !a.started {
		a.started = true
		a.cur, a.first = slot, slot
		a.resetAcc()
	}
	if slot != a.cur {
		a.ring[a.cur%int64(len(a.ring))] = a.consolidate()
		if gap := slot - a.cur - 1; gap >= int64(len(a.ring)) {
			for i := range a.ring {
				a.ring[i] = math.NaN()
			}
		} else {
			for g := a.cur + 1; g < slot; g++ {
				a.ring[g%int64(len(a.ring))] = math.NaN()
			}
		}
		a.cur = slot
		a.resetAcc()
	}
	if math.IsNaN(v) {
		return
	}
	if a.accCnt == 0 {
		a.accMin, a.accMax = v, v
	} else {
		if v < a.accMin {
			a.accMin = v
		}
		if v > a.accMax {
			a.accMax = v
		}
	}
	if sum := a.accSum + v; math.IsInf(sum, 0) {
		a.accInf = true
	} else {
		a.accSum = sum
	}
	a.accLast = v
	a.accCnt++
}

// oldestSlot is the earliest slot still retained (and actually observed).
func (a *archive) oldestSlot() int64 {
	lo := a.cur - int64(len(a.ring)) + 1
	if lo < a.first {
		lo = a.first
	}
	return lo
}

// series is one named time-series with its own lock so updates to
// different series never contend.
type series struct {
	mu       sync.Mutex
	def      SeriesDef
	lastTS   int64 // unix nanos of the last raw sample; 0 = none yet
	lastVal  float64
	archives []*archive
}

// Store holds many series sharing a default base step.
type Store struct {
	mu     sync.RWMutex
	step   time.Duration
	series map[string]*series
}

// NewStore creates a store whose series default to the given base step.
func NewStore(step time.Duration) *Store {
	if step <= 0 {
		step = DefaultStep
	}
	return &Store{step: step, series: make(map[string]*series)}
}

// MaxRows bounds one archive's ring, so a definition decoded from a
// damaged journal cannot demand an arbitrary allocation. 65 536 slots is
// 45 days of minutes; the default ladder's largest ring is 1 440.
const MaxRows = 1 << 16

// valid reports whether def can back a series: a name, a positive step,
// and at least one archive whose ring holds 1..MaxRows slots and whose
// slot width (Steps × Step) fits in int64 nanoseconds. Create and
// RestoreSeries both gate on it, so every live archive has a positive
// slot width and a non-empty ring.
func (def SeriesDef) valid() bool {
	if def.Name == "" || def.Step <= 0 || len(def.Archives) == 0 {
		return false
	}
	for _, a := range def.Archives {
		if a.Steps <= 0 || a.Rows <= 0 || a.Rows > MaxRows ||
			int64(a.Steps) > math.MaxInt64/int64(def.Step) {
			return false
		}
	}
	return true
}

// Create registers a series; a non-positive Step takes the store's
// default. Creating an existing series with an equal definition is a
// no-op; a different definition is ErrExists.
func (s *Store) Create(def SeriesDef) error {
	if def.Step <= 0 {
		def.Step = s.step
	}
	if !def.valid() {
		return ErrBadDef
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if old, ok := s.series[def.Name]; ok {
		if defEqual(old.def, def) {
			return nil
		}
		return ErrExists
	}
	sr := &series{def: def}
	for _, spec := range def.Archives {
		sr.archives = append(sr.archives, newArchive(spec, def.Step))
	}
	s.series[def.Name] = sr
	return nil
}

func defEqual(a, b SeriesDef) bool {
	if a.Name != b.Name || a.Kind != b.Kind || a.Step != b.Step || len(a.Archives) != len(b.Archives) {
		return false
	}
	for i := range a.Archives {
		if a.Archives[i] != b.Archives[i] {
			return false
		}
	}
	return true
}

// Has reports whether the series exists.
func (s *Store) Has(name string) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, ok := s.series[name]
	return ok
}

// Names returns all series names, sorted.
func (s *Store) Names() []string {
	s.mu.RLock()
	out := make([]string, 0, len(s.series))
	for n := range s.series {
		out = append(out, n)
	}
	s.mu.RUnlock()
	sort.Strings(out)
	return out
}

// Len returns the number of series.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.series)
}

// LastTS returns the timestamp of the last accepted raw sample.
func (s *Store) LastTS(name string) (time.Time, bool) {
	s.mu.RLock()
	sr := s.series[name]
	s.mu.RUnlock()
	if sr == nil {
		return time.Time{}, false
	}
	sr.mu.Lock()
	defer sr.mu.Unlock()
	if sr.lastTS == 0 {
		return time.Time{}, false
	}
	return time.Unix(0, sr.lastTS), true
}

// Update feeds one raw sample. Timestamps must lie after the Unix epoch
// and strictly advance per series; a stale timestamp is ErrPast
// (idempotent feeds ignore it).
func (s *Store) Update(name string, ts time.Time, v float64) error {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return ErrBadValue
	}
	s.mu.RLock()
	sr := s.series[name]
	s.mu.RUnlock()
	if sr == nil {
		return ErrNoSeries
	}
	tsn := ts.UnixNano()
	sr.mu.Lock()
	defer sr.mu.Unlock()
	if tsn <= sr.lastTS {
		return ErrPast
	}
	pdp := v
	if sr.def.Kind == Counter {
		if sr.lastTS == 0 {
			pdp = math.NaN() // no delta yet
		} else if v < sr.lastVal {
			pdp = math.NaN() // counter reset
		} else {
			dt := float64(tsn-sr.lastTS) / float64(time.Second)
			if pdp = (v - sr.lastVal) / dt; math.IsInf(pdp, 0) {
				pdp = math.NaN() // rate beyond float64: unknown
			}
		}
	}
	sr.lastTS, sr.lastVal = tsn, v
	for _, a := range sr.archives {
		a.observe(tsn, pdp)
	}
	return nil
}

// Fetch returns consolidated points in [start, end] from the finest
// archive with the requested CF whose retention still covers start (or
// the coarsest such archive when none reaches back far enough). The
// still-accumulating head slot is included with Live=true.
func (s *Store) Fetch(name string, cf CF, start, end time.Time) (*Result, error) {
	s.mu.RLock()
	sr := s.series[name]
	s.mu.RUnlock()
	if sr == nil {
		return nil, ErrNoSeries
	}
	sr.mu.Lock()
	defer sr.mu.Unlock()
	var candidates []*archive
	for _, a := range sr.archives {
		if a.spec.CF == cf {
			candidates = append(candidates, a)
		}
	}
	if len(candidates) == 0 {
		return nil, ErrNoArchive
	}
	sort.Slice(candidates, func(i, j int) bool { return candidates[i].slotNs < candidates[j].slotNs })
	chosen := candidates[len(candidates)-1]
	for _, a := range candidates {
		if !a.started {
			continue
		}
		if a.oldestSlot()*a.slotNs <= start.UnixNano() {
			chosen = a
			break
		}
	}
	return &Result{
		Name:   name,
		CF:     cf,
		Step:   time.Duration(chosen.slotNs),
		Points: archivePoints(chosen, start.UnixNano(), end.UnixNano()),
	}, nil
}

// archivePoints extracts [startNs, endNs] from one ring; caller holds the
// series lock.
func archivePoints(a *archive, startNs, endNs int64) []Point {
	if !a.started {
		return nil
	}
	lo := startNs / a.slotNs
	hi := endNs / a.slotNs
	if oldest := a.oldestSlot(); lo < oldest {
		lo = oldest
	}
	if hi > a.cur {
		hi = a.cur
	}
	if hi < lo {
		return nil
	}
	pts := make([]Point, 0, hi-lo+1)
	for sl := lo; sl <= hi; sl++ {
		p := Point{TS: time.Unix(0, sl*a.slotNs)}
		if sl == a.cur {
			p.V = a.consolidate()
			p.Live = true
		} else {
			p.V = a.ring[sl%int64(len(a.ring))]
		}
		pts = append(pts, p)
	}
	return pts
}

// XportArchive is one archive's full retained contents.
type XportArchive struct {
	Spec   ArchiveSpec
	Step   time.Duration
	Points []Point
}

// XportSeries is a full export of one series across all its archives,
// the unit served over the HistoryXport wire op.
type XportSeries struct {
	Def      SeriesDef
	Archives []XportArchive
}

// Xport exports every archive of a series in definition order.
func (s *Store) Xport(name string) (*XportSeries, error) {
	s.mu.RLock()
	sr := s.series[name]
	s.mu.RUnlock()
	if sr == nil {
		return nil, ErrNoSeries
	}
	sr.mu.Lock()
	defer sr.mu.Unlock()
	out := &XportSeries{Def: sr.def}
	for _, a := range sr.archives {
		xa := XportArchive{Spec: a.spec, Step: time.Duration(a.slotNs)}
		if a.started {
			xa.Points = archivePoints(a, a.oldestSlot()*a.slotNs, a.cur*a.slotNs)
		}
		out.Archives = append(out.Archives, xa)
	}
	return out, nil
}

// RingValues is a ring buffer that survives JSON: NaN slots marshal as
// null (JSON has no NaN) and come back as NaN.
type RingValues []float64

// MarshalJSON renders NaN as null.
func (r RingValues) MarshalJSON() ([]byte, error) {
	var b bytes.Buffer
	b.WriteByte('[')
	for i, v := range r {
		if i > 0 {
			b.WriteByte(',')
		}
		if math.IsNaN(v) {
			b.WriteString("null")
		} else {
			enc, err := json.Marshal(v)
			if err != nil {
				return nil, err
			}
			b.Write(enc)
		}
	}
	b.WriteByte(']')
	return b.Bytes(), nil
}

// UnmarshalJSON restores null as NaN.
func (r *RingValues) UnmarshalJSON(data []byte) error {
	var raw []*float64
	if err := json.Unmarshal(data, &raw); err != nil {
		return err
	}
	out := make(RingValues, len(raw))
	for i, p := range raw {
		if p == nil {
			out[i] = math.NaN()
		} else {
			out[i] = *p
		}
	}
	*r = out
	return nil
}

// ArchiveDump is one archive's complete state, used by store snapshots.
// Accumulator fields are always finite, so the struct is JSON-safe.
type ArchiveDump struct {
	Spec    ArchiveSpec `json:"spec"`
	Cur     int64       `json:"cur"`
	First   int64       `json:"first"`
	Started bool        `json:"started"`
	Ring    RingValues  `json:"ring"`
	AccSum  float64     `json:"acc_sum"`
	AccCnt  int         `json:"acc_cnt"`
	AccMin  float64     `json:"acc_min"`
	AccMax  float64     `json:"acc_max"`
	AccLast float64     `json:"acc_last"`
	AccInf  bool        `json:"acc_inf,omitempty"`
}

// SeriesDump is one series' complete state.
type SeriesDump struct {
	Def      SeriesDef     `json:"def"`
	LastTS   int64         `json:"last_ts"`
	LastVal  float64       `json:"last_val"`
	Archives []ArchiveDump `json:"archives"`
}

// Dump exports every series' full state, sorted by name.
func (s *Store) Dump() []SeriesDump {
	names := s.Names()
	out := make([]SeriesDump, 0, len(names))
	for _, n := range names {
		s.mu.RLock()
		sr := s.series[n]
		s.mu.RUnlock()
		if sr == nil {
			continue
		}
		sr.mu.Lock()
		d := SeriesDump{Def: sr.def, LastTS: sr.lastTS, LastVal: sr.lastVal}
		for _, a := range sr.archives {
			ring := make(RingValues, len(a.ring))
			copy(ring, a.ring)
			d.Archives = append(d.Archives, ArchiveDump{
				Spec: a.spec, Cur: a.cur, First: a.first, Started: a.started,
				Ring: ring, AccSum: a.accSum, AccCnt: a.accCnt,
				AccMin: a.accMin, AccMax: a.accMax, AccLast: a.accLast, AccInf: a.accInf,
			})
		}
		sr.mu.Unlock()
		out = append(out, d)
	}
	return out
}

// RestoreSeries installs one dumped series, replacing any existing series
// of the same name. The definition passes Create's validation, and
// negative timestamps or slot indices are refused, so a damaged dump is
// ErrBadDef rather than a later panic. Ring lengths are clamped to the
// definition's Rows so a hand-edited dump cannot inflate the memory bound.
func (s *Store) RestoreSeries(d SeriesDump) error {
	if !d.Def.valid() || d.LastTS < 0 {
		return ErrBadDef
	}
	for _, ad := range d.Archives {
		if ad.Cur < 0 || ad.First < 0 {
			return ErrBadDef
		}
	}
	sr := &series{def: d.Def, lastTS: d.LastTS, lastVal: d.LastVal}
	for i, spec := range d.Def.Archives {
		a := newArchive(spec, d.Def.Step)
		if i < len(d.Archives) {
			ad := d.Archives[i]
			a.cur, a.first, a.started = ad.Cur, ad.First, ad.Started
			copy(a.ring, ad.Ring)
			a.accSum, a.accCnt = ad.AccSum, ad.AccCnt
			a.accMin, a.accMax, a.accLast, a.accInf = ad.AccMin, ad.AccMax, ad.AccLast, ad.AccInf
		}
		sr.archives = append(sr.archives, a)
	}
	s.mu.Lock()
	s.series[d.Def.Name] = sr
	s.mu.Unlock()
	return nil
}

// Sample is one raw observation inside a journaled Batch.
type Sample struct {
	Name  string  `json:"n"`
	Value float64 `json:"v"`
}

// Batch is one sampler tick's raw observations, the unit the durable
// store journals between snapshots. Replaying a batch through Update is
// idempotent because stale timestamps are rejected with ErrPast.
type Batch struct {
	TS      time.Time `json:"ts"`
	Samples []Sample  `json:"s"`
}
