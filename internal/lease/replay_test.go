package lease

import (
	"errors"
	"testing"
	"time"

	"glare/internal/simclock"
)

// journalRec captures the mutations a Service emits.
type journalRec struct {
	acquired []Ticket
	released []uint64
	limits   map[string]int
}

func (j *journalRec) RecordAcquire(t Ticket)  { j.acquired = append(j.acquired, t) }
func (j *journalRec) RecordRelease(id uint64) { j.released = append(j.released, id) }
func (j *journalRec) RecordLimit(dep string, max int) {
	if j.limits == nil {
		j.limits = map[string]int{}
	}
	j.limits[dep] = max
}

func TestJournalSeesMutations(t *testing.T) {
	clock := simclock.NewVirtual(time.Time{})
	s := NewService(clock)
	j := &journalRec{}
	s.SetJournal(j)

	tk, err := s.Acquire("jpovray", "c1", Exclusive, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	s.SetSharedLimit("wien2k", 4)
	if err := s.Release(tk.ID); err != nil {
		t.Fatal(err)
	}
	if len(j.acquired) != 1 || j.acquired[0].ID != tk.ID {
		t.Fatalf("acquired journal = %+v", j.acquired)
	}
	if len(j.released) != 1 || j.released[0] != tk.ID {
		t.Fatalf("released journal = %+v", j.released)
	}
	if j.limits["wien2k"] != 4 {
		t.Fatalf("limit journal = %+v", j.limits)
	}
	// Failed acquires must not be journaled.
	if _, err := s.Acquire("jpovray", "", Exclusive, time.Hour); err == nil {
		t.Fatal("bad acquire accepted")
	}
	if len(j.acquired) != 1 {
		t.Fatalf("failed acquire journaled: %+v", j.acquired)
	}
}

// TestReplayDropsExpiredLease is the crash-recovery semantic of the
// issue: a lease that expired while the site was down is NOT resurrected
// — the deployment returns to the shared pool — but its ticket ID is
// retired so the restarted service never reissues it.
func TestReplayDropsExpiredLease(t *testing.T) {
	clock := simclock.NewVirtual(time.Time{})
	before := NewService(clock)
	tk, err := before.Acquire("jpovray", "c1", Exclusive, time.Hour)
	if err != nil {
		t.Fatal(err)
	}

	// The site "crashes"; 2 hours pass; a fresh service replays the
	// journaled ticket.
	clock.Advance(2 * time.Hour)
	after := NewService(clock)
	if after.Restore(tk) {
		t.Fatal("expired ticket was revived")
	}
	if n := activeLeases(after, "jpovray"); n != 0 {
		t.Fatalf("active leases = %d, want 0", n)
	}
	// The pool is free again: a new client can lease the deployment…
	nt, err := after.Acquire("jpovray", "c2", Exclusive, time.Hour)
	if err != nil {
		t.Fatalf("deployment not returned to pool: %v", err)
	}
	// …but the dead ticket's ID was retired, never reused.
	if nt.ID <= tk.ID {
		t.Fatalf("reissued ID %d <= retired ID %d", nt.ID, tk.ID)
	}
	// And the expired ticket authorizes nothing.
	if err := after.Authorize(tk.ID, "c1", "jpovray"); !errors.Is(err, ErrUnknown) {
		t.Fatalf("expired ticket authorize = %v", err)
	}
}

func TestReplayRevivesUnexpiredLease(t *testing.T) {
	clock := simclock.NewVirtual(time.Time{})
	before := NewService(clock)
	tk, err := before.Acquire("jpovray", "c1", Exclusive, time.Hour)
	if err != nil {
		t.Fatal(err)
	}

	clock.Advance(10 * time.Minute) // restart well inside the lease window
	after := NewService(clock)
	if !after.Restore(tk) {
		t.Fatal("valid ticket not revived")
	}
	// The lease still excludes other clients…
	if _, err := after.Acquire("jpovray", "c2", Exclusive, time.Hour); !errors.Is(err, ErrConflict) {
		t.Fatalf("acquire on revived lease = %v", err)
	}
	// …and still authorizes its holder.
	if err := after.Authorize(tk.ID, "c1", "jpovray"); err != nil {
		t.Fatalf("revived ticket authorize = %v", err)
	}
	inUse, exclusive := after.InUse("jpovray")
	if !inUse || !exclusive {
		t.Fatalf("InUse = %v, %v", inUse, exclusive)
	}
}

func TestRestoreLimitAndRetireID(t *testing.T) {
	clock := simclock.NewVirtual(time.Time{})
	s := NewService(clock)
	s.RestoreLimit("wien2k", 2)
	s.RetireID(17)

	if _, err := s.Acquire("wien2k", "a", Shared, time.Hour); err != nil {
		t.Fatal(err)
	}
	tk, err := s.Acquire("wien2k", "b", Shared, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if tk.ID <= 17 {
		t.Fatalf("ticket ID %d not past retired 17", tk.ID)
	}
	if _, err := s.Acquire("wien2k", "c", Shared, time.Hour); !errors.Is(err, ErrLimit) {
		t.Fatalf("restored limit not enforced: %v", err)
	}
}
