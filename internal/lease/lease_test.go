package lease

import (
	"errors"
	"testing"
	"time"

	"glare/internal/simclock"
)

func fixture() (*Service, *simclock.Virtual) {
	v := simclock.NewVirtual(time.Time{})
	return NewService(v), v
}

// activeLeases counts the valid leases on a deployment, expiring lapsed
// ones first.
func activeLeases(s *Service, deployment string) int {
	now := s.clock.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.deps[deployment]
	if st == nil {
		return 0
	}
	s.expireLocked(st, now)
	n := len(st.shared)
	if st.exclusive != nil {
		n++
	}
	return n
}

func TestExclusiveLease(t *testing.T) {
	s, v := fixture()
	tk, err := s.Acquire("jpovray", "scheduler-1", Exclusive, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if !tk.Valid(v.Now()) {
		t.Fatal("fresh ticket invalid")
	}
	// No one else may lease it, shared or exclusive.
	if _, err := s.Acquire("jpovray", "other", Exclusive, time.Hour); !errors.Is(err, ErrConflict) {
		t.Fatalf("err = %v", err)
	}
	if _, err := s.Acquire("jpovray", "other", Shared, time.Hour); !errors.Is(err, ErrConflict) {
		t.Fatalf("err = %v", err)
	}
	inUse, excl := s.InUse("jpovray")
	if !inUse || !excl {
		t.Fatal("InUse wrong")
	}
	// The holder is authorized; others are not.
	if err := s.Authorize(tk.ID, "scheduler-1", "jpovray"); err != nil {
		t.Fatal(err)
	}
	if err := s.Authorize(tk.ID, "intruder", "jpovray"); !errors.Is(err, ErrUnauthorized) {
		t.Fatalf("err = %v", err)
	}
	if err := s.Authorize(tk.ID, "scheduler-1", "other-dep"); !errors.Is(err, ErrUnauthorized) {
		t.Fatalf("err = %v", err)
	}
}

func TestSharedLeaseConcurrencyLimit(t *testing.T) {
	s, _ := fixture()
	s.SetSharedLimit("wien2k", 2)
	a, err := s.Acquire("wien2k", "c1", Shared, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Acquire("wien2k", "c2", Shared, time.Hour); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Acquire("wien2k", "c3", Shared, time.Hour); !errors.Is(err, ErrLimit) {
		t.Fatalf("limit not enforced: %v", err)
	}
	// Exclusive conflicts with shared holders.
	if _, err := s.Acquire("wien2k", "c4", Exclusive, time.Hour); !errors.Is(err, ErrConflict) {
		t.Fatalf("err = %v", err)
	}
	// Releasing frees a slot.
	if err := s.Release(a.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Acquire("wien2k", "c3", Shared, time.Hour); err != nil {
		t.Fatalf("after release: %v", err)
	}
	if n := activeLeases(s, "wien2k"); n != 2 {
		t.Fatalf("active = %d", n)
	}
}

func TestUnlimitedSharedByDefault(t *testing.T) {
	s, _ := fixture()
	for i := 0; i < 50; i++ {
		if _, err := s.Acquire("counter", "c", Shared, time.Hour); err != nil {
			t.Fatalf("lease %d: %v", i, err)
		}
	}
}

func TestLeaseExpiry(t *testing.T) {
	s, v := fixture()
	tk, _ := s.Acquire("d", "c", Exclusive, time.Minute)
	v.Advance(2 * time.Minute)
	// Expired exclusive no longer blocks.
	if _, err := s.Acquire("d", "c2", Exclusive, time.Minute); err != nil {
		t.Fatalf("expired lease still blocking: %v", err)
	}
	// And the old ticket no longer authorizes.
	if err := s.Authorize(tk.ID, "c", "d"); !errors.Is(err, ErrUnknown) {
		t.Fatalf("err = %v", err)
	}
	inUse, _ := s.InUse("nonexistent")
	if inUse {
		t.Fatal("unknown deployment in use")
	}
}

func TestReleaseUnknown(t *testing.T) {
	s, _ := fixture()
	if err := s.Release(99); !errors.Is(err, ErrUnknown) {
		t.Fatalf("err = %v", err)
	}
	if err := s.Authorize(99, "c", "d"); !errors.Is(err, ErrUnknown) {
		t.Fatalf("err = %v", err)
	}
}

func TestAcquireValidation(t *testing.T) {
	s, _ := fixture()
	if _, err := s.Acquire("", "c", Shared, time.Hour); err == nil {
		t.Fatal("empty deployment must fail")
	}
	if _, err := s.Acquire("d", "", Shared, time.Hour); err == nil {
		t.Fatal("empty client must fail")
	}
	if _, err := s.Acquire("d", "c", Shared, 0); err == nil {
		t.Fatal("zero duration must fail")
	}
	if _, err := s.Acquire("d", "c", Kind("weird"), time.Hour); err == nil {
		t.Fatal("bad kind must fail")
	}
}

func TestExclusiveAfterSharedExpiry(t *testing.T) {
	s, v := fixture()
	s.Acquire("d", "c1", Shared, time.Minute)
	s.Acquire("d", "c2", Shared, 2*time.Minute)
	if _, err := s.Acquire("d", "x", Exclusive, time.Hour); !errors.Is(err, ErrConflict) {
		t.Fatal("shared leases must block exclusive")
	}
	v.Advance(3 * time.Minute)
	if _, err := s.Acquire("d", "x", Exclusive, time.Hour); err != nil {
		t.Fatalf("after expiry: %v", err)
	}
}

func TestTicketValidWindow(t *testing.T) {
	now := time.Now()
	tk := Ticket{Start: now, End: now.Add(time.Hour)}
	if !tk.Valid(now) {
		t.Fatal("start instant must be valid")
	}
	if tk.Valid(now.Add(time.Hour)) {
		t.Fatal("end instant must be invalid")
	}
	if tk.Valid(now.Add(-time.Second)) {
		t.Fatal("before start must be invalid")
	}
}

func TestReleaseByDeployment(t *testing.T) {
	v := simclock.NewVirtual(time.Time{})
	s := NewService(v)
	j := &journalRec{}
	s.SetJournal(j)

	ex, err := s.Acquire("jpovray", "c1", Exclusive, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	sh1, err := s.Acquire("wien2k", "c2", Shared, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	sh2, err := s.Acquire("wien2k", "c3", Shared, time.Hour)
	if err != nil {
		t.Fatal(err)
	}

	ids := s.ReleaseByDeployment("wien2k")
	if len(ids) != 2 || ids[0] != sh1.ID || ids[1] != sh2.ID {
		t.Fatalf("released %v, want [%d %d]", ids, sh1.ID, sh2.ID)
	}
	// Both shared tickets are gone and journaled; the other deployment's
	// exclusive lease is untouched.
	if len(j.released) != 2 {
		t.Fatalf("journaled releases = %v", j.released)
	}
	if err := s.Authorize(sh1.ID, "c2", "wien2k"); err == nil {
		t.Fatal("released ticket still authorizes")
	}
	if err := s.Authorize(ex.ID, "c1", "jpovray"); err != nil {
		t.Fatalf("unrelated lease disturbed: %v", err)
	}
	if used, _ := s.InUse("wien2k"); used {
		t.Fatal("deployment still marked in use")
	}
	if got := s.ReleaseByDeployment("wien2k"); got != nil {
		t.Fatalf("second release = %v, want nil", got)
	}
	// The freed deployment accepts new leases (state fully reset).
	if _, err := s.Acquire("wien2k", "c4", Exclusive, time.Hour); err != nil {
		t.Fatalf("re-acquire after bulk release: %v", err)
	}
}
