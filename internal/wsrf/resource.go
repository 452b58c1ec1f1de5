// Package wsrf implements the Web-Services Resource Framework analogue the
// GLARE registries are built on: stateful resources with resource-property
// documents and lifetime management, service groups for aggregation, and
// topic-based notification.
//
// The paper implements GLARE on Globus Toolkit 4, "a reference
// implementation of the new Web-Services Resource Framework". This package
// reproduces the WSRF semantics the paper relies on — resource lifecycle,
// expiry, aggregation with periodic refresh, and event notification — so
// registries and the MDS baseline share one substrate.
package wsrf

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"glare/internal/epr"
	"glare/internal/simclock"
	"glare/internal/xmlutil"
)

// Journal receives every mutation of a Home for durable replay and
// replication (a site binds its one site journal: the write-ahead log of
// internal/store, then the replica fan-out). Implementations must be safe
// for concurrent use and must not call back into the Home: records are
// written under the mutated resource's lock, so a key's records reach the
// journal in the order its mutations applied and a replay ends in the live
// state.
type Journal interface {
	// RecordPut journals the full property document after a mutation.
	// doc is the resource's live document, handed over under its write
	// lock: read it during the call and never keep it or a part of it.
	// An implementation that needs the document later copies it.
	RecordPut(key string, doc *xmlutil.Node, lut, term time.Time)
	// RecordDelete journals a resource removal.
	RecordDelete(key string)
}

// Resource is one stateful WS-Resource: a keyed resource-property document
// with an optional termination time. It is mutated only through its Home,
// which journals every change.
type Resource struct {
	mu          sync.RWMutex
	key         string
	doc         *xmlutil.Node
	lastUpdate  time.Time
	termination time.Time // zero = never expires
	destroyed   bool
}

// Key returns the resource key (immutable).
func (r *Resource) Key() string { return r.key }

// Document returns a deep copy of the resource property document, so
// callers can never mutate registry state behind the registry's back.
func (r *Resource) Document() *xmlutil.Node {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.doc.Clone()
}

// Read runs fn against the live property document under the resource's
// read lock; fn must not mutate the document or retain references past the
// call. It is the zero-copy read path (Document copies instead).
func (r *Resource) Read(fn func(doc *xmlutil.Node)) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	fn(r.doc)
}

// LastUpdate returns the last modification instant.
func (r *Resource) LastUpdate() time.Time {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.lastUpdate
}

// TerminationTime returns the scheduled termination time (zero = never).
func (r *Resource) TerminationTime() time.Time {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.termination
}

// Expired reports whether the resource is past its termination time.
func (r *Resource) Expired(now time.Time) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return !r.termination.IsZero() && now.After(r.termination)
}

// recordPut journals r's current state, handing the journal the live
// document (see Journal). The caller holds r.mu, so nothing mutates the
// document during the call and a resource's records reach the journal in
// the order its mutations applied.
func (r *Resource) recordPut(j Journal) {
	if j != nil {
		j.RecordPut(r.key, r.doc, r.lastUpdate, r.termination)
	}
}

// Home is a collection of WS-Resources of one kind (e.g. all activity-type
// resources of one registry), addressed by key through a hash table. It is
// the single holder of those documents and the single point that journals
// their mutations.
//
// Lock order: a writer holds at most one published resource's lock at a
// time, and never waits for the home's lock while holding it (Destroy
// takes the home's lock first; Create and install hold only a resource no
// reader can reach yet). Select read-locks many resources at once, in key
// order, and takes no other lock while holding them, so readers and
// writers cannot wait on each other in a cycle. No code may read-lock a
// resource it already holds: a waiting writer blocks the second RLock. A
// View build takes the home's lock and then one resource read lock at a
// time, under the view's own mutex.
type Home struct {
	mu        sync.RWMutex
	service   string // service address used when minting EPRs
	keyName   string // reference property name, e.g. "ActivityTypeKey"
	clock     simclock.Clock
	stamp     func() time.Time // ordering-stamp source, called under the stamped resource's lock
	journal   Journal          // nil = no persistence
	resources map[string]*Resource
	sorted    []*Resource          // All's answer; nil once resources change, never modified in place
	retiring  map[string]*Resource // destroyed, removal not yet journaled
	destroyed []func(*Resource)    // destruction listeners
	member    []string             // element names of a rendered member EPR
	gen       atomic.Uint64        // moves after every applied change; see View
}

// NewHome creates a resource home. service and keyName are used to mint
// EPRs for contained resources.
func NewHome(service, keyName string, clock simclock.Clock) *Home {
	if clock == nil {
		clock = simclock.Real
	}
	return &Home{
		service:   service,
		keyName:   keyName,
		clock:     clock,
		stamp:     clock.Now,
		resources: make(map[string]*Resource),
		retiring:  make(map[string]*Resource),
		member:    memberNames(service, keyName),
	}
}

// Service returns the home's service address.
func (h *Home) Service() string { return h.service }

// SetStamp overrides the source of LastUpdate stamps — the site's hybrid
// logical clock, so cross-site newest-wins comparisons on LastUpdate
// survive wall-clock skew. Expiry decisions (SweepExpired) stay on the
// home's physical clock: HLC stamps may lead it by observed peer skew and
// must never be compared against local time. Restore and Adopt are also
// unaffected: they install journaled stamps verbatim.
func (h *Home) SetStamp(fn func() time.Time) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.stamp = fn
}

// SetJournal binds the durability journal: from then on Create, Update,
// Replace, SetTermination, Destroy (and so expiry sweeps) and Adopt each
// journal one record. Call during site assembly, after Restore has
// replayed the recovered state and before serving traffic.
func (h *Home) SetJournal(j Journal) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.journal = j
}

// awaitRetired waits until a destroyed resource still reserving key has
// journaled its removal, so a new resource under key cannot journal ahead
// of that delete. Callers hold h.mu; Destroy never takes h.mu while holding
// the retired resource's lock.
func (h *Home) awaitRetired(key string) {
	if old := h.retiring[key]; old != nil {
		old.mu.Lock()
		old.mu.Unlock()
		delete(h.retiring, key)
	}
}

// Create adds a resource with the given key and document and journals it.
// It fails if the key already exists.
func (h *Home) Create(key string, doc *xmlutil.Node) (*Resource, error) {
	if key == "" {
		return nil, fmt.Errorf("wsrf: empty resource key")
	}
	if doc == nil {
		doc = xmlutil.NewNode("Properties")
	}
	// r is unreachable until published, so locking it first cannot
	// deadlock; holding it until journaled keeps any later mutation of r
	// from reaching the journal ahead of its creation.
	r := &Resource{key: key, doc: doc}
	r.mu.Lock()
	defer r.mu.Unlock()
	h.mu.Lock()
	if _, ok := h.resources[key]; ok {
		h.mu.Unlock()
		return nil, fmt.Errorf("wsrf: resource %q already exists", key)
	}
	h.awaitRetired(key)
	r.lastUpdate = h.stamp()
	h.resources[key] = r
	h.sorted = nil
	h.gen.Add(1)
	j := h.journal
	h.mu.Unlock()
	r.recordPut(j)
	return r, nil
}

// Restore installs a resource with explicit timestamps, replacing any
// existing resource with the key. It is the crash-recovery path: replay
// must reproduce the journaled LastUpdate exactly (cache revival and
// anti-entropy order on it) instead of stamping "now", and it fires no
// listeners and journals nothing — recovery is not observable as resource
// churn.
func (h *Home) Restore(key string, doc *xmlutil.Node, lastUpdate, termination time.Time) *Resource {
	return h.install(key, doc, lastUpdate, termination, false)
}

// Adopt installs a replicated resource as locally owned: the document and
// timestamps land exactly as journaled at the origin site (like Restore),
// but the adoption is journaled, so a promoted replica survives this
// site's own restarts too.
func (h *Home) Adopt(key string, doc *xmlutil.Node, lastUpdate, termination time.Time) *Resource {
	return h.install(key, doc, lastUpdate, termination, true)
}

func (h *Home) install(key string, doc *xmlutil.Node, lastUpdate, termination time.Time, journal bool) *Resource {
	r := &Resource{key: key, doc: doc, lastUpdate: lastUpdate, termination: termination}
	r.mu.Lock()
	defer r.mu.Unlock()
	h.mu.Lock()
	h.awaitRetired(key)
	if old := h.resources[key]; old != nil {
		// The replaced resource is retired, so a mutation still holding it
		// cannot journal its stale state after this one.
		old.mu.Lock()
		old.destroyed = true
		old.mu.Unlock()
	}
	h.resources[key] = r
	h.sorted = nil
	h.gen.Add(1)
	j := h.journal
	h.mu.Unlock()
	if journal {
		r.recordPut(j)
	}
	return r
}

// Update runs fn against the property document of the resource for key
// under its write lock, stamps LastUpdate with the home's ordering clock
// and journals the result. It reports false when no such resource exists.
func (h *Home) Update(key string, fn func(doc *xmlutil.Node)) bool {
	return h.mutate(key, true, func(r *Resource) { fn(r.doc) })
}

// Replace swaps in a whole new property document, stamped and journaled
// like Update.
func (h *Home) Replace(key string, doc *xmlutil.Node) bool {
	return h.mutate(key, true, func(r *Resource) { r.doc = doc })
}

// SetTermination schedules (or cancels, with zero) a resource's expiry and
// journals it. A lifetime change is not a content change: LastUpdate is
// kept.
func (h *Home) SetTermination(key string, at time.Time) bool {
	return h.mutate(key, false, func(r *Resource) { r.termination = at })
}

// mutate applies fn to the live resource for key under its write lock,
// optionally stamps it, and journals the result before unlocking. The stamp
// is drawn under that lock too, so a resource's stamps increase in the
// order its mutations apply and journal.
func (h *Home) mutate(key string, stamp bool, fn func(r *Resource)) bool {
	h.mu.RLock()
	r, j, now := h.resources[key], h.journal, h.stamp
	h.mu.RUnlock()
	if r == nil {
		return false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.destroyed {
		return false
	}
	fn(r)
	if stamp {
		r.lastUpdate = now()
	}
	h.gen.Add(1)
	r.recordPut(j)
	return true
}

// Timestamps returns a resource's LastUpdate and termination time, the
// ordering fields replication compares copies on.
func (h *Home) Timestamps(key string) (lastUpdate, termination time.Time, ok bool) {
	r := h.Find(key)
	if r == nil {
		return time.Time{}, time.Time{}, false
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.lastUpdate, r.termination, true
}

// Find returns the resource for key, or nil. This is the O(1) hash-table
// named lookup the paper credits for the ATR's flat throughput curve.
func (h *Home) Find(key string) *Resource {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return h.resources[key]
}

// Destroy removes a resource, journals the removal and fires destruction
// listeners. The removal is journaled under the resource's lock alone, not
// the home's, so lookups never wait on the journal; the retired resource
// reserves the key until then, so it cannot be created or adopted again
// ahead of the delete.
func (h *Home) Destroy(key string) bool {
	h.mu.Lock()
	r, ok := h.resources[key]
	if !ok {
		h.mu.Unlock()
		return false
	}
	delete(h.resources, key)
	h.sorted = nil
	h.gen.Add(1)
	listeners := append([]func(*Resource){}, h.destroyed...)
	j := h.journal
	r.mu.Lock()
	r.destroyed = true
	h.retiring[key] = r
	h.mu.Unlock()
	if j != nil {
		j.RecordDelete(key)
	}
	r.mu.Unlock()
	h.mu.Lock()
	if h.retiring[key] == r {
		delete(h.retiring, key)
	}
	h.mu.Unlock()
	for _, fn := range listeners {
		fn(r)
	}
	return true
}

// OnDestroy registers a listener invoked after a resource is destroyed.
func (h *Home) OnDestroy(fn func(*Resource)) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.destroyed = append(h.destroyed, fn)
}

// Len returns the number of live resources.
func (h *Home) Len() int {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return len(h.resources)
}

// Keys returns all resource keys in sorted order.
func (h *Home) Keys() []string {
	all := h.All()
	keys := make([]string, len(all))
	for i, r := range all {
		keys[i] = r.key
	}
	return keys
}

// All returns the live resources in key order. The slice is shared by
// every caller until the next Create, install or Destroy replaces it, so
// callers must not modify it; mutations of the resources themselves keep
// it.
func (h *Home) All() []*Resource {
	h.mu.RLock()
	all := h.sorted
	h.mu.RUnlock()
	if all != nil {
		return all
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.sorted == nil {
		h.sorted = make([]*Resource, 0, len(h.resources))
		for _, r := range h.resources {
			h.sorted = append(h.sorted, r)
		}
		slices.SortFunc(h.sorted, func(a, b *Resource) int { return strings.Compare(a.key, b.key) })
	}
	return h.sorted
}

// EPR mints an endpoint reference for a contained resource.
func (h *Home) EPR(key string) epr.EPR {
	e := epr.New(h.service, h.keyName, key)
	if r := h.Find(key); r != nil {
		e.LastUpdateTime = r.LastUpdate()
	}
	return e
}

// SweepExpired destroys every resource past its termination time and
// returns the destroyed keys. The RDM service's monitors call this
// periodically; "outdated resources are discarded automatically".
func (h *Home) SweepExpired() []string {
	now := h.clock.Now()
	h.mu.RLock()
	var expired []string
	for k, r := range h.resources {
		if r.Expired(now) {
			expired = append(expired, k)
		}
	}
	h.mu.RUnlock()
	sort.Strings(expired)
	for _, k := range expired {
		h.Destroy(k)
	}
	return expired
}
