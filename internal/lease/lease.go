// Package lease implements GLARE's deployment leasing, the GridARM
// reservation analogue of paper §3.2:
//
//	"The GLARE service provides the capability to lease an activity
//	deployment ... A fine-grained reservation of a specific activity
//	instead of the entire Grid site is supported. A user with valid
//	reservation ticket is authorized to instantiate the reserved
//	activity. A lease can be exclusive or shared. In case of an
//	exclusive lease no one else is allowed to use the activity, during
//	its leased timeframe. In case of shared lease, multiple clients can
//	use the leased activity but GridARM reservation service ensures that
//	the number of concurrent clients does not exceed the allowed limits."
package lease

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"glare/internal/simclock"
)

// Kind distinguishes exclusive from shared leases.
type Kind string

const (
	Exclusive Kind = "exclusive"
	Shared    Kind = "shared"
)

// Ticket authorizes a client to instantiate a leased deployment.
type Ticket struct {
	ID         uint64
	Deployment string
	Client     string
	Kind       Kind
	Start      time.Time
	End        time.Time
}

// Valid reports whether the ticket covers the given instant.
func (t Ticket) Valid(now time.Time) bool {
	return !now.Before(t.Start) && now.Before(t.End)
}

// Errors returned by the service.
var (
	ErrConflict     = errors.New("lease: conflicts with an existing lease")
	ErrLimit        = errors.New("lease: concurrent client limit reached")
	ErrUnknown      = errors.New("lease: no such ticket")
	ErrUnauthorized = errors.New("lease: ticket does not authorize this use")
)

// Journal receives every lease mutation for durable replay (the
// write-ahead log of internal/store satisfies it). Implementations must
// be safe for concurrent use; nil means no persistence.
type Journal interface {
	RecordAcquire(t Ticket)
	RecordRelease(id uint64)
	RecordLimit(deployment string, max int)
}

// deploymentState tracks the active leases of one deployment.
type deploymentState struct {
	exclusive *Ticket
	shared    map[uint64]*Ticket
	// maxShared bounds concurrent shared lessees; 0 = unlimited.
	maxShared int
}

// Service is the reservation service of one GLARE site.
type Service struct {
	mu      sync.Mutex
	clock   simclock.Clock
	nextID  uint64
	deps    map[string]*deploymentState
	byID    map[uint64]*Ticket
	journal Journal
}

// NewService creates an empty reservation service.
func NewService(clock simclock.Clock) *Service {
	if clock == nil {
		clock = simclock.Real
	}
	return &Service{
		clock: clock,
		deps:  make(map[string]*deploymentState),
		byID:  make(map[uint64]*Ticket),
	}
}

// SetJournal binds the durability journal; call during site assembly,
// before serving traffic.
func (s *Service) SetJournal(j Journal) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.journal = j
}

// SetSharedLimit bounds the number of concurrent shared lessees of a
// deployment ("the number of concurrent clients does not exceed the
// allowed limits"); 0 removes the bound.
func (s *Service) SetSharedLimit(deployment string, max int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stateLocked(deployment)
	st.maxShared = max
	if s.journal != nil {
		s.journal.RecordLimit(deployment, max)
	}
}

// Restore re-installs a journaled ticket during crash recovery. The
// ticket's ID is retired unconditionally — a restarted site must never
// reissue an ID that was handed to a client before the crash — but the
// lease itself is only revived if still unexpired: an expired ticket is
// dropped and its deployment returns to the shared pool rather than being
// resurrected. Reports whether the ticket was revived. No journal entry
// is written (replay must not re-journal what it reads).
func (s *Service) Restore(t Ticket) bool {
	now := s.clock.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	if t.ID > s.nextID {
		s.nextID = t.ID
	}
	if !t.Valid(now) {
		return false
	}
	st := s.stateLocked(t.Deployment)
	tt := t
	if t.Kind == Exclusive {
		st.exclusive = &tt
	} else {
		st.shared[t.ID] = &tt
	}
	s.byID[t.ID] = &tt
	return true
}

// RestoreLimit re-installs a journaled shared-lessee bound during crash
// recovery, without re-journaling it.
func (s *Service) RestoreLimit(deployment string, max int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stateLocked(deployment).maxShared = max
}

// RetireID advances the ID allocator past id without reviving anything;
// recovery calls it for journaled tickets that no longer exist so released
// IDs are never reused either.
func (s *Service) RetireID(id uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if id > s.nextID {
		s.nextID = id
	}
}

func (s *Service) stateLocked(deployment string) *deploymentState {
	st := s.deps[deployment]
	if st == nil {
		st = &deploymentState{shared: make(map[uint64]*Ticket)}
		s.deps[deployment] = st
	}
	return st
}

// expireLocked drops lapsed leases of one deployment.
func (s *Service) expireLocked(st *deploymentState, now time.Time) {
	if st.exclusive != nil && !st.exclusive.Valid(now) {
		delete(s.byID, st.exclusive.ID)
		st.exclusive = nil
	}
	for id, t := range st.shared {
		if !t.Valid(now) {
			delete(st.shared, id)
			delete(s.byID, id)
		}
	}
}

// Acquire leases a deployment for the client over [now, now+d).
func (s *Service) Acquire(deployment, client string, kind Kind, d time.Duration) (Ticket, error) {
	if deployment == "" || client == "" {
		return Ticket{}, fmt.Errorf("lease: deployment and client are required")
	}
	if d <= 0 {
		return Ticket{}, fmt.Errorf("lease: non-positive duration %v", d)
	}
	if kind != Exclusive && kind != Shared {
		return Ticket{}, fmt.Errorf("lease: unknown kind %q", kind)
	}
	now := s.clock.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stateLocked(deployment)
	s.expireLocked(st, now)

	switch kind {
	case Exclusive:
		if st.exclusive != nil || len(st.shared) > 0 {
			return Ticket{}, ErrConflict
		}
	case Shared:
		if st.exclusive != nil {
			return Ticket{}, ErrConflict
		}
		if st.maxShared > 0 && len(st.shared) >= st.maxShared {
			return Ticket{}, ErrLimit
		}
	}
	s.nextID++
	t := &Ticket{
		ID: s.nextID, Deployment: deployment, Client: client, Kind: kind,
		Start: now, End: now.Add(d),
	}
	if kind == Exclusive {
		st.exclusive = t
	} else {
		st.shared[t.ID] = t
	}
	s.byID[t.ID] = t
	if s.journal != nil {
		s.journal.RecordAcquire(*t)
	}
	return *t, nil
}

// Release ends a lease early.
func (s *Service) Release(id uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.byID[id]
	if !ok {
		return ErrUnknown
	}
	delete(s.byID, id)
	st := s.deps[t.Deployment]
	if st != nil {
		if st.exclusive != nil && st.exclusive.ID == id {
			st.exclusive = nil
		}
		delete(st.shared, id)
	}
	if s.journal != nil {
		s.journal.RecordRelease(id)
	}
	return nil
}

// ReleaseByDeployment releases every outstanding ticket on a deployment
// and returns the released IDs (ascending). This is the undeploy path: a
// removed deployment must not keep live reservations, and each release is
// journaled so a restart cannot resurrect a lease on a deployment that no
// longer exists.
func (s *Service) ReleaseByDeployment(deployment string) []uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.deps[deployment]
	if st == nil {
		return nil
	}
	var ids []uint64
	if st.exclusive != nil {
		ids = append(ids, st.exclusive.ID)
	}
	for id := range st.shared {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		delete(s.byID, id)
		if s.journal != nil {
			s.journal.RecordRelease(id)
		}
	}
	delete(s.deps, deployment)
	return ids
}

// Authorize checks that the ticket permits the client to use the
// deployment now. It is what the instantiation path consults before
// starting a leased activity.
func (s *Service) Authorize(id uint64, client, deployment string) error {
	now := s.clock.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.byID[id]
	if !ok {
		return ErrUnknown
	}
	if !t.Valid(now) {
		delete(s.byID, id)
		if st := s.deps[t.Deployment]; st != nil {
			if st.exclusive != nil && st.exclusive.ID == id {
				st.exclusive = nil
			}
			delete(st.shared, id)
		}
		return ErrUnknown
	}
	if t.Client != client || t.Deployment != deployment {
		return ErrUnauthorized
	}
	return nil
}

// InUse reports whether the deployment currently has any valid lease, and
// whether that lease is exclusive.
func (s *Service) InUse(deployment string) (inUse, exclusive bool) {
	now := s.clock.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.deps[deployment]
	if st == nil {
		return false, false
	}
	s.expireLocked(st, now)
	if st.exclusive != nil {
		return true, true
	}
	return len(st.shared) > 0, false
}
