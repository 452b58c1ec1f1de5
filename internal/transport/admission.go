package transport

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"glare/internal/telemetry"
)

// Class ranks a request's priority for admission control. Lower values
// are more important: under overload the site browns out bottom-up,
// shedding bulk anti-entropy traffic first and control-plane traffic
// last, so a flooded community degrades instead of partitioning.
type Class int

const (
	// ClassControl is overlay control-plane traffic — elections, view
	// installs, liveness probes, takeover. Starving it would turn
	// overload into partition, so it sheds last.
	ClassControl Class = iota
	// ClassInteractive is client-facing resolution and registration:
	// the traffic whose latency the paper's Fig. 10/11 measure.
	ClassInteractive
	// ClassBulk is background anti-entropy and history traffic —
	// registry sync digests, HistoryXport rollups, store status scans.
	// It browns out first: a stale rollup is recoverable, a failed
	// resolution is user-visible.
	ClassBulk

	numClasses = 3
)

// String names the class for telemetry labels and status output.
func (c Class) String() string {
	switch c {
	case ClassControl:
		return "control"
	case ClassInteractive:
		return "interactive"
	case ClassBulk:
		return "bulk"
	}
	return fmt.Sprintf("class-%d", int(c))
}

// DefaultClassify is the grid's standard operation taxonomy: everything
// on the PeerService (plus view/liveness reads) is control plane,
// anti-entropy digests and history exports are bulk, and everything else
// — resolution, registration, deployment, leasing — is interactive.
func DefaultClassify(service, operation string) Class {
	if service == "PeerService" {
		return ClassControl
	}
	switch operation {
	case "ViewStatus", "Ping":
		return ClassControl
	// Replication is infrastructure traffic: a quorum write or a failover
	// hand-off must not queue behind the very client load it protects.
	case "Replicate", "ReplicaFetch", "ReplicaPromote", "ReplicaHandOff":
		return ClassControl
	case "RegistryDigest", "HistoryXport", "StoreStatus", "GetLUT", "ReplicaStatus",
		"ArtifactFetch", "ArtifactStatus":
		// Artifact-grid traffic is bulk: a blob fetch must not starve
		// interactive resolution, and brownout shedding it only sends the
		// requester down the ladder to origin.
		return ClassBulk
	}
	return ClassInteractive
}

// ClassLimits bounds one priority class's concurrency.
type ClassLimits struct {
	// Limit is the initial concurrent-execution limit (default 16).
	Limit int
	// MinLimit and MaxLimit bound AIMD adaptation (defaults 1 and Limit).
	MinLimit int
	MaxLimit int
	// QueueDepth bounds the deadline-aware wait queue; zero means no
	// queue (a request arriving at the limit is shed immediately).
	QueueDepth int
}

func (l ClassLimits) normalized() ClassLimits {
	if l.Limit <= 0 {
		l.Limit = 16
	}
	if l.MinLimit <= 0 {
		l.MinLimit = 1
	}
	if l.MinLimit > l.Limit {
		l.MinLimit = l.Limit
	}
	if l.MaxLimit < l.Limit {
		l.MaxLimit = l.Limit
	}
	if l.QueueDepth < 0 {
		l.QueueDepth = 0
	}
	return l
}

// AdmissionConfig configures a per-site admission controller.
type AdmissionConfig struct {
	Control     ClassLimits
	Interactive ClassLimits
	Bulk        ClassLimits
	// TargetP99 is the latency target the AIMD controller adapts each
	// class's concurrency limit against: a windowed p99 above the target
	// halves the limit (multiplicative decrease, floored at MinLimit),
	// at or below it adds one slot (additive increase, capped at
	// MaxLimit). Zero disables adaptation and keeps limits fixed.
	TargetP99 time.Duration
	// AIMDWindow is the number of completions per class between
	// adaptations (default 64).
	AIMDWindow int
	// Now overrides the time source (tests).
	Now func() time.Time
}

// DefaultAdmissionConfig returns limits generous enough that a healthy
// site never queues, while a flooded one sheds bulk and queue-overflow
// traffic instead of collapsing MDS-style.
func DefaultAdmissionConfig() AdmissionConfig {
	return AdmissionConfig{
		Control:     ClassLimits{Limit: 64, MinLimit: 16, MaxLimit: 256, QueueDepth: 256},
		Interactive: ClassLimits{Limit: 128, MinLimit: 8, MaxLimit: 512, QueueDepth: 512},
		Bulk:        ClassLimits{Limit: 16, MinLimit: 2, MaxLimit: 64, QueueDepth: 64},
		TargetP99:   2 * time.Second,
		AIMDWindow:  64,
	}
}

// Overload is the admission controller's refusal: the site is up but
// will not execute this request. The server renders it as a coded fault
// that the client maps back to a retryable Unavailable.
type Overload struct {
	Class Class
	// Reason is "shed" (queue overflow), "expired" (the propagated
	// deadline passed while queued) or "brownout" (a higher-priority
	// class is already queueing, so lower-priority work is refused).
	Reason string
}

// Error implements the error interface.
func (o *Overload) Error() string {
	return fmt.Sprintf("overloaded: %s request %s", o.Class, o.Reason)
}

// waiter is one queued request.
type waiter struct {
	deadline time.Time // zero when the request carries no budget
	ready    chan bool // buffered; true = admitted, false = shed
}

// classState is one priority class's live admission state.
type classState struct {
	class  Class
	limits ClassLimits
	limit  int
	infl   int
	queue  []*waiter

	lats []time.Duration
	nlat int

	sheds   uint64
	expired uint64

	inflG, queueG, limitG *telemetry.Gauge
}

// Admission is a per-site admission controller: per-class AIMD-adaptive
// concurrency limits with bounded, deadline-aware wait queues and a
// brownout ladder across priority classes. One controller guards one
// Server's whole service tree.
type Admission struct {
	cfg AdmissionConfig
	now func() time.Time
	tel *telemetry.Telemetry

	mu      sync.Mutex
	classes [numClasses]*classState
}

// NewAdmission builds a controller; tel may be nil (no metrics).
func NewAdmission(cfg AdmissionConfig, tel *telemetry.Telemetry) *Admission {
	if cfg.AIMDWindow <= 0 {
		cfg.AIMDWindow = 64
	}
	a := &Admission{cfg: cfg, now: cfg.Now, tel: tel}
	if a.now == nil {
		a.now = time.Now
	}
	for i, lim := range []ClassLimits{cfg.Control, cfg.Interactive, cfg.Bulk} {
		lim = lim.normalized()
		cs := &classState{
			class:  Class(i),
			limits: lim,
			limit:  lim.Limit,
			lats:   make([]time.Duration, cfg.AIMDWindow),
		}
		label := telemetry.L("class", cs.class.String())
		cs.inflG = tel.Gauge("glare_server_inflight", label)
		cs.queueG = tel.Gauge("glare_server_queue_depth", label)
		cs.limitG = tel.Gauge("glare_server_admission_limit", label)
		cs.limitG.Set(int64(cs.limit))
		a.classes[i] = cs
	}
	return a
}

// shedLocked accounts one refused request. Callers hold a.mu.
func (a *Admission) shedLocked(cs *classState, reason string) {
	cs.sheds++
	if reason == "expired" {
		cs.expired++
	}
	a.tel.Counter("glare_server_sheds_total").Inc()
	a.tel.Counter("glare_server_sheds_total",
		telemetry.L("class", cs.class.String()), telemetry.L("reason", reason)).Inc()
}

// sooner reports whether deadline a expires before b. A zero deadline
// never expires and therefore always loses the comparison.
func sooner(a, b time.Time) bool {
	if a.IsZero() {
		return false
	}
	if b.IsZero() {
		return true
	}
	return a.Before(b)
}

// Admit asks leave to execute (service, operation) under the given
// absolute deadline (zero when the request carries no budget). On
// admission it returns a release callback the server invokes when the
// request completes; on refusal it returns an *Overload. Admit blocks
// while the request waits in its class's queue.
func (a *Admission) Admit(service, operation string, deadline time.Time) (func(), error) {
	class := DefaultClassify(service, operation)
	cs := a.classes[class]
	a.mu.Lock()
	// Brownout ladder: while any higher-priority class has waiters
	// queued, the site is saturated from this class's point of view —
	// lower-priority traffic is refused outright instead of competing
	// for slots the more important work is already waiting on.
	for higher := Class(0); higher < class; higher++ {
		if len(a.classes[higher].queue) > 0 {
			a.shedLocked(cs, "brownout")
			a.mu.Unlock()
			return nil, &Overload{Class: class, Reason: "brownout"}
		}
	}
	if cs.infl < cs.limit {
		cs.infl++
		cs.inflG.Set(int64(cs.infl))
		start := a.now()
		a.mu.Unlock()
		return func() { a.release(cs, start) }, nil
	}
	w := &waiter{deadline: deadline, ready: make(chan bool, 1)}
	if len(cs.queue) >= cs.limits.QueueDepth {
		// Queue overflow: shed the request least likely to make its
		// deadline — with every slot and queue position taken, the
		// waiter with the nearest deadline is the one a freed slot can
		// no longer save. Deadline-less requests are infinitely patient
		// and only lose to each other (then the newcomer sheds).
		victim, idx := w, -1
		for i, q := range cs.queue {
			if sooner(q.deadline, victim.deadline) {
				victim, idx = q, i
			}
		}
		a.shedLocked(cs, "shed")
		if victim == w {
			a.mu.Unlock()
			return nil, &Overload{Class: class, Reason: "shed"}
		}
		cs.queue = append(cs.queue[:idx], cs.queue[idx+1:]...)
		victim.ready <- false
	}
	cs.queue = append(cs.queue, w)
	cs.queueG.Set(int64(len(cs.queue)))
	a.mu.Unlock()

	var expiry <-chan time.Time
	if !deadline.IsZero() {
		t := time.NewTimer(time.Until(deadline))
		defer t.Stop()
		expiry = t.C
	}
	select {
	case ok := <-w.ready:
		if !ok {
			return nil, &Overload{Class: class, Reason: "shed"}
		}
		start := a.now()
		return func() { a.release(cs, start) }, nil
	case <-expiry:
		// The budget ran out while queued: withdraw — unless a release
		// admitted (or an overflow shed) us in the same instant, in
		// which case honour that verdict instead.
		a.mu.Lock()
		for i, q := range cs.queue {
			if q == w {
				cs.queue = append(cs.queue[:i], cs.queue[i+1:]...)
				cs.queueG.Set(int64(len(cs.queue)))
				a.shedLocked(cs, "expired")
				a.mu.Unlock()
				return nil, &Overload{Class: class, Reason: "expired"}
			}
		}
		a.mu.Unlock()
		if ok := <-w.ready; ok {
			start := a.now()
			return func() { a.release(cs, start) }, nil
		}
		return nil, &Overload{Class: class, Reason: "shed"}
	}
}

// release returns a slot, feeds the AIMD controller, and promotes
// waiters — skipping any whose deadline has already passed, so an
// expired request never starts executing.
func (a *Admission) release(cs *classState, start time.Time) {
	elapsed := a.now().Sub(start)
	a.mu.Lock()
	cs.infl--
	if a.cfg.TargetP99 > 0 {
		cs.lats[cs.nlat%len(cs.lats)] = elapsed
		cs.nlat++
		if cs.nlat >= len(cs.lats) && cs.nlat%len(cs.lats) == 0 {
			if p99 := quantileDur(cs.lats, 0.99); p99 > a.cfg.TargetP99 {
				if cs.limit = cs.limit / 2; cs.limit < cs.limits.MinLimit {
					cs.limit = cs.limits.MinLimit
				}
			} else if cs.limit < cs.limits.MaxLimit {
				cs.limit++
			}
			cs.limitG.Set(int64(cs.limit))
		}
	}
	now := a.now()
	for cs.infl < cs.limit && len(cs.queue) > 0 {
		w := cs.queue[0]
		cs.queue = cs.queue[1:]
		if !w.deadline.IsZero() && !now.Before(w.deadline) {
			a.shedLocked(cs, "expired")
			w.ready <- false
			continue
		}
		cs.infl++
		w.ready <- true
	}
	cs.inflG.Set(int64(cs.infl))
	cs.queueG.Set(int64(len(cs.queue)))
	a.mu.Unlock()
}

// quantileDur computes the q-quantile of a latency window by sorting a
// copy (windows are small — the default is 64 entries).
func quantileDur(lats []time.Duration, q float64) time.Duration {
	s := append([]time.Duration(nil), lats...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	idx := int(q*float64(len(s)-1) + 0.5)
	if idx < 0 {
		idx = 0
	}
	if idx >= len(s) {
		idx = len(s) - 1
	}
	return s[idx]
}

// ClassStatus is one class's instantaneous admission picture.
type ClassStatus struct {
	Class    string
	Limit    int
	Inflight int
	Queued   int
	Sheds    uint64
	Expired  uint64
}

// Status reports the controller's per-class state, ordered control,
// interactive, bulk — the `glarectl status` columns.
func (a *Admission) Status() []ClassStatus {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]ClassStatus, 0, numClasses)
	for _, cs := range a.classes {
		out = append(out, ClassStatus{
			Class:    cs.class.String(),
			Limit:    cs.limit,
			Inflight: cs.infl,
			Queued:   len(cs.queue),
			Sheds:    cs.sheds,
			Expired:  cs.expired,
		})
	}
	return out
}
