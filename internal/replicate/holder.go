package replicate

import (
	"sort"
	"sync"
	"time"

	"glare/internal/xmlutil"
)

// Entry is one replicated registry record as journaled at its origin. A
// deleted entry is a tombstone: it keeps the key and the delete's stamp
// (LUT), so a straggler put of an older state cannot resurrect the key.
type Entry struct {
	Key     string
	Doc     *xmlutil.Node
	LUT     time.Time
	Term    time.Time
	Deleted bool
}

// supersedes reports whether e replaces the record held for its key.
// Ordering is by stamp alone; the origin's HLC never gives two distinct
// events one stamp, so an equal stamp is a re-delivery:
//   - a put replaces an entry that is no newer than it;
//   - a put loses to a tombstone with an equal or newer stamp;
//   - a delete beats an entry with an equal or older stamp.
func (e Entry) supersedes(held Entry) bool {
	if held.Deleted && !e.Deleted {
		return e.LUT.After(held.LUT)
	}
	return !held.LUT.After(e.LUT)
}

// tombstoneDoc names the document a holder journals for a tombstone. The
// store keeps it as an ordinary put under the delete's stamp, and Restore
// turns it back into a tombstone.
const tombstoneDoc = "Tombstone"

// Journal receives a replica's applied records for durable replay; the
// store's per-registry WAL satisfies it. Nil means memory-only.
type Journal interface {
	RecordPut(key string, doc *xmlutil.Node, lut, term time.Time)
}

// JournalFactory mints the journal a replica writes an origin's entries
// through. Implementations name the backing registry "replica:<origin>:<reg>"
// so replica state rides the site's existing WAL and snapshots without any
// new storage machinery.
type JournalFactory func(origin, reg string) Journal

type originState struct {
	// regs maps a registry name ("atr", "adr", "lease") to its records,
	// tombstones included.
	regs map[string]map[string]Entry
	// promoted marks that this site adopted the origin's entries as its
	// own after the origin was declared permanently lost.
	promoted bool
}

// Holder is a site's store of replicated entries, keyed by origin site.
// Entries applied here are shadow copies: they do not enter the site's own
// registries until a promotion adopts them.
type Holder struct {
	mu      sync.Mutex
	origins map[string]*originState
	factory JournalFactory
}

// NewHolder creates a holder; factory may be nil for memory-only sites.
func NewHolder(factory JournalFactory) *Holder {
	return &Holder{origins: map[string]*originState{}, factory: factory}
}

func (h *Holder) origin(name string) *originState {
	st := h.origins[name]
	if st == nil {
		st = &originState{regs: map[string]map[string]Entry{}}
		h.origins[name] = st
	}
	return st
}

// Apply installs an origin's record, a put or a tombstone, if it
// supersedes the record held for its key (see Entry.supersedes): fan-out
// goroutines impose no arrival order, and this one rule converges a
// replica on the origin's final state. The journal write happens under
// the mutex so the WAL records mutations in exactly their in-memory
// application order: concurrent records of one key cannot journal
// reversed and replay the stale one after a restart. A tombstone is
// journaled as a put of a <Tombstone/> document under the delete's stamp.
// Returns whether e was applied.
func (h *Holder) Apply(origin, reg string, e Entry) bool {
	return h.apply(origin, reg, e, h.factory)
}

// Put applies an origin's put; see Apply.
func (h *Holder) Put(origin, reg, key string, doc *xmlutil.Node, lut, term time.Time) bool {
	return h.Apply(origin, reg, Entry{Key: key, Doc: doc, LUT: lut, Term: term})
}

// Delete applies an origin's delete stamped lut, leaving a tombstone; see
// Apply.
func (h *Holder) Delete(origin, reg, key string, lut time.Time) bool {
	return h.Apply(origin, reg, Entry{Key: key, LUT: lut, Deleted: true})
}

// Restore re-installs a journaled replica record during crash recovery
// without writing it back to the journal it just came from.
func (h *Holder) Restore(origin, reg string, e Entry) {
	if e.Doc != nil && e.Doc.Name == tombstoneDoc {
		e.Doc, e.Deleted = nil, true
	}
	h.apply(origin, reg, e, nil)
}

func (h *Holder) apply(origin, reg string, e Entry, factory JournalFactory) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	st := h.origin(origin)
	records := st.regs[reg]
	if records == nil {
		records = map[string]Entry{}
		st.regs[reg] = records
	}
	if held, ok := records[e.Key]; ok && !e.supersedes(held) {
		return false
	}
	records[e.Key] = e
	if factory != nil {
		if j := factory(origin, reg); j != nil {
			doc := e.Doc
			switch {
			case e.Deleted:
				doc = xmlutil.NewNode(tombstoneDoc)
			case doc == nil:
				doc = xmlutil.NewNode("Empty")
			}
			j.RecordPut(e.Key, doc, e.LUT, e.Term)
		}
	}
	return true
}

// Entries returns an origin's live entries for one registry, key-sorted.
func (h *Holder) Entries(origin, reg string) []Entry {
	var out []Entry
	for _, e := range h.Records(origin)[reg] {
		if !e.Deleted {
			out = append(out, e)
		}
	}
	return out
}

// Records returns every record held for an origin, tombstones included,
// by registry and key-sorted: the payload of a fetch or hand-off.
func (h *Holder) Records(origin string) map[string][]Entry {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := map[string][]Entry{}
	st := h.origins[origin]
	if st == nil {
		return out
	}
	for reg, records := range st.regs {
		es := make([]Entry, 0, len(records))
		for _, e := range records {
			es = append(es, e)
		}
		sort.Slice(es, func(i, j int) bool { return es[i].Key < es[j].Key })
		out[reg] = es
	}
	return out
}

// Origins lists the sites this holder replicates, sorted.
func (h *Holder) Origins() []string {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]string, 0, len(h.origins))
	for name := range h.origins {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Status summarizes how caught-up this holder is for an origin: the live
// entries held and the newest stamp seen, a tombstone's included.
// Promotion ranks candidates on the stamp first: unlike a sequence
// counter it survives a replica's own restart, and the holder that missed
// a delete has the older one.
func (h *Holder) Status(origin string) (entries int, lastLUT time.Time, promoted bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	st := h.origins[origin]
	if st == nil {
		return 0, time.Time{}, false
	}
	for _, reg := range st.regs {
		for _, e := range reg {
			if !e.Deleted {
				entries++
			}
			if e.LUT.After(lastLUT) {
				lastLUT = e.LUT
			}
		}
	}
	return entries, lastLUT, st.promoted
}

// Has reports whether the record held for key, an entry or a tombstone,
// is at least as fresh as lut.
func (h *Holder) Has(origin, reg, key string, lut time.Time) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	st := h.origins[origin]
	if st == nil {
		return false
	}
	e, ok := st.regs[reg][key]
	return ok && !e.LUT.Before(lut)
}

// SetPromoted flags (or clears) an origin as promoted here.
func (h *Holder) SetPromoted(origin string, v bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.origin(origin).promoted = v
}

// Promoted reports whether this site adopted the origin's entries.
func (h *Holder) Promoted(origin string) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	st := h.origins[origin]
	return st != nil && st.promoted
}
