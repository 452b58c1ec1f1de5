package replicate

import (
	"context"
	"fmt"
	"strconv"
	"sync"
	"time"

	"glare/internal/epr"
	"glare/internal/superpeer"
	"glare/internal/telemetry"
	"glare/internal/xmlutil"
)

// CallFunc issues one wire operation against a service address; the rdm
// service injects its deadline-propagating client call here.
type CallFunc func(ctx context.Context, address, op string, body *xmlutil.Node) (*xmlutil.Node, error)

// DefaultTimeout bounds a quorum wait and each replica send.
const DefaultTimeout = 3 * time.Second

// Config assembles a site's replicator.
type Config struct {
	// Self identifies the owning site.
	Self superpeer.SiteInfo
	// K is the configured replication factor (total copies, owner
	// included); the effective factor is capped by the group size.
	K int
	// View returns the current epoch-fenced overlay view.
	View func() superpeer.View
	// Call issues wire operations (rides deadline propagation).
	Call CallFunc
	// Service is the wire service the replication ops are mounted on.
	Service string
	// Journals mints replica write-through journals; nil = memory-only.
	Journals JournalFactory
	// Timeout bounds quorum waits and replica sends (DefaultTimeout if 0).
	Timeout time.Duration
	// Now is the ordering-stamp source for delete tombstones — the site's
	// hybrid logical clock, so a tombstone always orders after the put it
	// deletes however skewed the site's wall clock is. Nil falls back to
	// the wall clock (pre-HLC behaviour).
	Now func() time.Time
	// Tel binds the glare_replica_* instruments; nil is a no-op.
	Tel *telemetry.Telemetry
}

// pendingWrite tracks one mutation's outstanding remote acknowledgements.
type pendingWrite struct {
	need        int // remote acks required for quorum (a durable owner already counted)
	acks        int
	outstanding int // sends still in flight
	signaled    bool
	failed      bool // drained with acks < need; kept until AwaitQuorum consumes it
	done        chan struct{}
}

// Replicator fans a site's registry mutations out to its replica set and
// gates registrations on the write quorum.
type Replicator struct {
	cfg    Config
	holder *Holder

	mu      sync.Mutex
	seq     uint64
	pending map[string]*pendingWrite

	// Instruments; exported so the rdm layer bumps promotion/repair
	// counters without replicate owning those passes.
	Writes, QuorumFailures, Applies, StaleEpoch  *telemetry.Counter
	Misrouted, Promotions, ReadRepairs, HandOffs *telemetry.Counter
	Lag                                          *telemetry.Gauge
}

// New creates a replicator; it is inert until mutations are forwarded.
func New(cfg Config) *Replicator {
	if cfg.Timeout <= 0 {
		cfg.Timeout = DefaultTimeout
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	r := &Replicator{
		cfg:     cfg,
		holder:  NewHolder(cfg.Journals),
		pending: map[string]*pendingWrite{},

		Writes:         cfg.Tel.Counter("glare_replica_writes_total"),
		QuorumFailures: cfg.Tel.Counter("glare_replica_quorum_failures_total"),
		Applies:        cfg.Tel.Counter("glare_replica_apply_total"),
		StaleEpoch:     cfg.Tel.Counter("glare_replica_stale_epoch_rejected_total"),
		Misrouted:      cfg.Tel.Counter("glare_replica_misrouted_rejected_total"),
		Promotions:     cfg.Tel.Counter("glare_replica_promotions_total"),
		ReadRepairs:    cfg.Tel.Counter("glare_replica_read_repairs_total"),
		HandOffs:       cfg.Tel.Counter("glare_replica_handoffs_total"),
		Lag:            cfg.Tel.Gauge("glare_replica_lag_entries"),
	}
	return r
}

// Holder exposes the replica store (wire handlers and promotion use it).
func (r *Replicator) Holder() *Holder { return r.holder }

// K returns the configured replication factor.
func (r *Replicator) K() int { return r.cfg.K }

// Replicas returns this site's current replica set.
func (r *Replicator) Replicas() []superpeer.SiteInfo {
	return ReplicaSet(r.cfg.View(), r.cfg.Self.Name, r.cfg.K)
}

// ForwardPut fans one put mutation out to the replica set asynchronously.
// Called on the owner's journal path after the local append; durable
// reports whether that append succeeded (a memory-only site passes true),
// and the owner's copy counts toward the write quorum a following
// AwaitQuorum on (reg, key) waits for only when it did. The fan-out always
// targets the FULL replica set — quorum only gates the client ack — so
// once sends drain, every replica holds the entry and any k−1
// simultaneous permanent losses still leave a copy alive. doc is read
// during the call and never kept: the asynchronous sends get the one copy
// made here. A nil Replicator (replication off) forwards nothing.
func (r *Replicator) ForwardPut(reg, key string, doc *xmlutil.Node, lut, term time.Time, durable bool) {
	r.forward(Mutation{Reg: reg, Key: key, Doc: doc, LUT: lut, Term: term}, durable)
}

// ForwardDelete fans one delete mutation out to the replica set, as
// ForwardPut does. The delete is stamped with the owner's ordering clock
// (Config.Now) so replicas can order it against puts of the same key that
// arrive out of order (see Holder); an HLC stamp source guarantees the
// tombstone orders after the put it deletes even on a skewed site.
func (r *Replicator) ForwardDelete(reg, key string, durable bool) {
	r.forward(Mutation{Reg: reg, Key: key, Delete: true}, durable)
}

// forward stamps m with this site's name, view epoch and sequence number
// and sends it to every replica; see ForwardPut.
func (r *Replicator) forward(m Mutation, durable bool) {
	if r == nil {
		return
	}
	view := r.cfg.View()
	replicas := ReplicaSet(view, r.cfg.Self.Name, r.cfg.K)
	if len(replicas) == 0 {
		return
	}
	r.Writes.Inc()
	m.Origin, m.Epoch = r.cfg.Self.Name, view.Epoch
	if m.Delete {
		m.LUT = r.cfg.Now()
	} else if m.Doc != nil {
		m.Doc = m.Doc.Clone()
	}
	pkey := m.Reg + "|" + m.Key
	r.mu.Lock()
	r.seq++
	m.Seq = r.seq
	// Effective k: the owner plus however many replicas the group yields.
	// The owner's copy is one of the quorum only if its append succeeded.
	need := Quorum(len(replicas) + 1)
	if durable {
		need--
	}
	p := &pendingWrite{need: need, outstanding: len(replicas), done: make(chan struct{})}
	if need <= 0 {
		p.signaled = true
		close(p.done)
	}
	r.pending[pkey] = p
	r.mu.Unlock()

	body := m.ToXML()
	for _, rep := range replicas {
		rep := rep
		r.Lag.Add(1)
		go func() {
			defer r.Lag.Add(-1)
			ctx, cancel := context.WithTimeout(context.Background(), r.cfg.Timeout)
			defer cancel()
			_, err := r.cfg.Call(ctx, rep.ServiceURL(r.cfg.Service), "Replicate", body)
			r.settle(pkey, p, err == nil)
		}()
	}
}

// settle records one replica send's outcome. A fan-out that drains WITH
// quorum forgets its pending entry (a missing entry then means success);
// one that drains WITHOUT quorum must never be confused with that, so it
// stays behind as a terminal failed result until AwaitQuorum consumes it
// or the next mutation of the same key replaces it.
func (r *Replicator) settle(pkey string, p *pendingWrite, acked bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if acked {
		p.acks++
	}
	if !p.signaled && p.acks >= p.need {
		p.signaled = true
		close(p.done)
	}
	p.outstanding--
	if p.outstanding > 0 {
		return
	}
	if p.signaled {
		if r.pending[pkey] == p {
			delete(r.pending, pkey)
		}
		return
	}
	p.failed = true
	close(p.done)
}

// AwaitQuorum blocks until the most recent mutation of (reg, key) reached
// its write quorum. Returns nil immediately when nothing is pending (no
// replicas assigned, or the fan-out already drained with quorum). On
// timeout or a fan-out that drained short of quorum the caller must fail
// the registration — the client never sees an ack the grid cannot back.
func (r *Replicator) AwaitQuorum(reg, key string) error {
	pkey := reg + "|" + key
	r.mu.Lock()
	p := r.pending[pkey]
	r.mu.Unlock()
	if p == nil {
		return nil
	}
	timeout := time.NewTimer(r.cfg.Timeout)
	defer timeout.Stop()
	select {
	case <-p.done:
	case <-timeout.C:
		// Raced the last settle? Check once more before declaring failure.
		select {
		case <-p.done:
		default:
			r.QuorumFailures.Inc()
			return fmt.Errorf("replicate: write quorum not reached for %s %q within %v (need %d remote acks)",
				reg, key, r.cfg.Timeout, p.need)
		}
	}
	r.mu.Lock()
	failed := p.failed
	if failed && r.pending[pkey] == p {
		delete(r.pending, pkey) // consume the terminal failed result
	}
	r.mu.Unlock()
	if failed {
		r.QuorumFailures.Inc()
		return fmt.Errorf("replicate: write quorum not reached for %s %q (%d of %d remote acks)",
			reg, key, p.acks, p.need)
	}
	return nil
}

// Apply installs an origin's mutation into the local holder. Both fences
// are conservative — refusing costs at most a spurious quorum failure at
// the origin, never durability: a mutation stamped with an older view
// epoch than ours is rejected outright (its sender is partitioned or
// about to be fenced), and a mutation from an origin whose replica set
// does not include this site is rejected so a misconfigured or stale
// sender cannot seed shadow state that promotion would later treat as a
// legitimate caught-up copy.
func (r *Replicator) Apply(m Mutation) error {
	v := r.cfg.View()
	if m.Epoch < v.Epoch {
		r.StaleEpoch.Inc()
		return fmt.Errorf("replicate: stale epoch %d < view epoch %d from %s", m.Epoch, v.Epoch, m.Origin)
	}
	if !Contains(ReplicaSet(v, m.Origin, r.cfg.K), r.cfg.Self.Name) {
		r.Misrouted.Inc()
		return fmt.Errorf("replicate: %s is not in %s's replica set at epoch %d", r.cfg.Self.Name, m.Origin, v.Epoch)
	}
	if r.holder.Apply(m.Origin, m.Reg, Entry{Key: m.Key, Doc: m.Doc, LUT: m.LUT, Term: m.Term, Deleted: m.Delete}) {
		r.Applies.Inc()
	}
	return nil
}

// Mutation is one replicated registry operation on the wire. Ordering
// between mutations of the same key is decided by LUT (the owner stamps
// puts with the registry's last-update time and deletes with its clock),
// NOT by Seq: the owner's in-memory sequence restarts from zero when the
// owner restarts, while LUTs keep advancing. Seq is a per-origin tracing
// aid only. For deletes, LUT is the tombstone stamp.
type Mutation struct {
	Origin string
	Epoch  uint64
	Seq    uint64
	Delete bool
	Reg    string
	Key    string
	Doc    *xmlutil.Node
	LUT    time.Time
	Term   time.Time
}

// ToXML renders the mutation for the Replicate wire op.
func (m Mutation) ToXML() *xmlutil.Node {
	n := xmlutil.NewNode("Replicate")
	n.SetAttr("origin", m.Origin)
	n.SetAttr("epoch", strconv.FormatUint(m.Epoch, 10))
	n.SetAttr("seq", strconv.FormatUint(m.Seq, 10))
	appendOp(n, m.Reg, Entry{Key: m.Key, Doc: m.Doc, LUT: m.LUT, Term: m.Term, Deleted: m.Delete})
	return n
}

// MutationFromXML parses a Replicate wire body.
func MutationFromXML(n *xmlutil.Node) (Mutation, error) {
	if n == nil || n.Name != "Replicate" {
		return Mutation{}, fmt.Errorf("replicate: expected <Replicate>")
	}
	m := Mutation{Origin: n.AttrOr("origin", "")}
	if m.Origin == "" {
		return Mutation{}, fmt.Errorf("replicate: mutation without origin")
	}
	m.Epoch, _ = strconv.ParseUint(n.AttrOr("epoch", "0"), 10, 64)
	m.Seq, _ = strconv.ParseUint(n.AttrOr("seq", "0"), 10, 64)
	if len(n.Children) == 0 {
		return Mutation{}, fmt.Errorf("replicate: mutation without Put/Delete")
	}
	reg, e, err := parseOp(n.Children[0])
	if err != nil {
		return Mutation{}, err
	}
	m.Reg, m.Key, m.Doc, m.LUT, m.Term, m.Delete = reg, e.Key, e.Doc, e.LUT, e.Term, e.Deleted
	return m, nil
}

// appendOp renders one record as a <Put> or <Delete> op element under
// parent: the one codec of every replication payload.
func appendOp(parent *xmlutil.Node, reg string, e Entry) {
	var op *xmlutil.Node
	if e.Deleted {
		op = parent.Elem("Delete")
		if !e.LUT.IsZero() {
			op.SetAttr("lut", e.LUT.Format(epr.TimeLayout))
		}
	} else {
		op = parent.Elem("Put")
		op.SetAttr("lut", e.LUT.Format(epr.TimeLayout))
		op.SetAttr("term", e.Term.Format(epr.TimeLayout))
		if e.Doc != nil {
			op.Add(e.Doc)
		}
	}
	op.SetAttr("reg", reg)
	op.SetAttr("key", e.Key)
}

// parseOp parses one op element rendered by appendOp.
func parseOp(op *xmlutil.Node) (reg string, e Entry, err error) {
	switch op.Name {
	case "Put":
		e.Term, _ = time.Parse(epr.TimeLayout, op.AttrOr("term", ""))
		if len(op.Children) > 0 {
			e.Doc = op.Children[0]
		}
	case "Delete":
		e.Deleted = true
	default:
		return "", Entry{}, fmt.Errorf("replicate: expected <Put> or <Delete>, got <%s>", op.Name)
	}
	reg, e.Key = op.AttrOr("reg", ""), op.AttrOr("key", "")
	if reg == "" || e.Key == "" {
		return "", Entry{}, fmt.Errorf("replicate: %s without reg/key", op.Name)
	}
	e.LUT, _ = time.Parse(epr.TimeLayout, op.AttrOr("lut", ""))
	return reg, e, nil
}

// EntriesToXML renders a fetch/hand-off payload: every record of one
// origin, tombstones included, as op elements.
func EntriesToXML(origin string, regs map[string][]Entry) *xmlutil.Node {
	n := xmlutil.NewNode("Entries")
	n.SetAttr("origin", origin)
	for reg, entries := range regs {
		for _, e := range entries {
			appendOp(n, reg, e)
		}
	}
	return n
}

// EntriesFromXML parses a fetch/hand-off payload back into per-registry
// record lists.
func EntriesFromXML(n *xmlutil.Node) (origin string, regs map[string][]Entry, err error) {
	if n == nil || n.Name != "Entries" {
		return "", nil, fmt.Errorf("replicate: expected <Entries>")
	}
	regs = map[string][]Entry{}
	for _, op := range n.Children {
		reg, e, err := parseOp(op)
		if err != nil {
			return "", nil, err
		}
		regs[reg] = append(regs[reg], e)
	}
	return n.AttrOr("origin", ""), regs, nil
}
