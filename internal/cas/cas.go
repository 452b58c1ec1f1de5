// Package cas is a site-local content-addressed store of verified
// installation artifacts, keyed by the checksum the deploy-file declared
// for the download step (md5 or sha256). Entries are byte-accounted
// against a budget and evicted least-recently-used; the grid layer above
// (internal/rdm) advertises holdings through the registry anti-entropy
// sync so peers can fetch from the nearest holder instead of origin.
//
// The store holds metadata only — the simulated grid never moves real
// bytes (DESIGN §3) — so an entry carries the artifact's size, its
// filesystem fingerprint for materialization, and the actual content
// checksum observed at ingest. A healthy entry's Sum equals its Key.Sum;
// Corrupt flips the stored sum to model bit rot, and every consumer
// (local hit, peer fetch) re-verifies before trusting the copy.
package cas

import (
	"container/list"
	"sort"
	"sync"
	"time"

	"glare/internal/simclock"
)

// DefaultBudget bounds a site's CAS when no explicit budget is configured:
// enough for several copies of the full software universe without letting
// the cache grow unboundedly.
const DefaultBudget = 256 << 20

// Key addresses a blob by its declared checksum.
type Key struct {
	Algo string // "md5" or "sha256"
	Sum  string // lowercase hex digest
}

// String renders the key in "algo:sum" form, the shape the store WAL and
// wire ops use.
func (k Key) String() string { return k.Algo + ":" + k.Sum }

// IsZero reports whether the key is empty.
func (k Key) IsZero() bool { return k.Algo == "" || k.Sum == "" }

// Entry is one held blob.
type Entry struct {
	Key Key
	// Sum is the actual content checksum observed when the blob was
	// verified on ingest. It equals Key.Sum for a healthy copy; Corrupt
	// makes them diverge so readers can detect the rot.
	Sum string
	// Size is the archive size in bytes; it drives budget accounting and
	// transfer cost when a peer fetches this blob.
	Size int64
	// MD5 and Artifact are the filesystem fingerprint and artifact name
	// needed to materialize the blob into a site FS on a cache hit.
	MD5      string
	Artifact string
	// URL is the origin the blob was first fetched from.
	URL string
	// Added is when the blob was ingested (virtual time).
	Added time.Time
}

// Store is the site-local CAS. All methods are safe for concurrent use.
type Store struct {
	mu      sync.Mutex
	clock   simclock.Clock
	budget  int64
	bytes   int64
	byKey   map[Key]*list.Element
	lru     *list.List // front = most recently used; values are *Entry
	ingests uint64
}

// New builds a store with the given byte budget; budget <= 0 selects
// DefaultBudget.
func New(clock simclock.Clock, budget int64) *Store {
	if clock == nil {
		clock = simclock.Real
	}
	if budget <= 0 {
		budget = DefaultBudget
	}
	return &Store{
		clock:  clock,
		budget: budget,
		byKey:  map[Key]*list.Element{},
		lru:    list.New(),
	}
}

// Put ingests a verified blob and returns the entries evicted to fit it
// under the budget. A blob larger than the whole budget is not stored
// (evicting everything for one unpinnable blob would thrash the cache);
// Put reports it as neither stored nor evicting.
func (s *Store) Put(e Entry) (evicted []Entry, stored bool) {
	if e.Key.IsZero() || e.Size > s.budget {
		return nil, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if e.Added.IsZero() {
		e.Added = s.clock.Now()
	}
	if el, ok := s.byKey[e.Key]; ok {
		old := el.Value.(*Entry)
		s.bytes += e.Size - old.Size
		*old = e
		s.lru.MoveToFront(el)
	} else {
		s.byKey[e.Key] = s.lru.PushFront(&e)
		s.bytes += e.Size
		s.ingests++
	}
	for s.bytes > s.budget {
		el := s.lru.Back()
		if el == nil {
			break
		}
		evicted = append(evicted, s.removeLocked(el))
	}
	return evicted, true
}

// Get returns the entry for key and bumps its recency.
func (s *Store) Get(k Key) (Entry, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.byKey[k]
	if !ok {
		return Entry{}, false
	}
	s.lru.MoveToFront(el)
	return *el.Value.(*Entry), true
}

// Delete drops the entry for key, reporting whether it was held.
func (s *Store) Delete(k Key) (Entry, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.byKey[k]
	if !ok {
		return Entry{}, false
	}
	return s.removeLocked(el), true
}

// Corrupt flips the stored content sum of the entry for key, simulating
// undetected bit rot in the local copy. Readers verifying Sum against
// Key.Sum will reject the copy. Returns false if the key is not held.
func (s *Store) Corrupt(k Key) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.byKey[k]
	if !ok {
		return false
	}
	e := el.Value.(*Entry)
	e.Sum = "rot-" + e.Sum
	return true
}

// Holdings lists every held entry, most recently used first.
func (s *Store) Holdings() []Entry {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Entry, 0, s.lru.Len())
	for el := s.lru.Front(); el != nil; el = el.Next() {
		out = append(out, *el.Value.(*Entry))
	}
	return out
}

// SortedHoldings lists every held entry ordered by key, for stable status
// output.
func (s *Store) SortedHoldings() []Entry {
	out := s.Holdings()
	sort.Slice(out, func(i, j int) bool { return out[i].Key.String() < out[j].Key.String() })
	return out
}

// Stats reports entry count, held bytes, budget, and lifetime ingests.
func (s *Store) Stats() (entries int, bytes, budget int64, ingests uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lru.Len(), s.bytes, s.budget, s.ingests
}

func (s *Store) removeLocked(el *list.Element) Entry {
	e := el.Value.(*Entry)
	s.lru.Remove(el)
	delete(s.byKey, e.Key)
	s.bytes -= e.Size
	return *e
}
