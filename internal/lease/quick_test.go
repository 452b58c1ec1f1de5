package lease

import (
	"testing"
	"testing/quick"
	"time"

	"glare/internal/simclock"
)

// op encodes one random action against the lease service.
type op struct {
	Kind    uint8 // 0 acquire-shared, 1 acquire-exclusive, 2 release, 3 advance
	Client  uint8
	Seconds uint8
}

// Property: under any operation sequence, the service invariants hold:
//   - at most one exclusive lease per deployment, never alongside shared;
//   - active shared leases never exceed the configured limit;
//   - the active lease count agrees with what Acquire/Release reported.
func TestQuickLeaseInvariants(t *testing.T) {
	const dep = "dep"
	const limit = 3
	f := func(ops []op) bool {
		clock := simclock.NewVirtual(time.Time{})
		s := NewService(clock)
		s.SetSharedLimit(dep, limit)
		type live struct {
			id   uint64
			kind Kind
			end  time.Time
		}
		var mine []live
		expire := func() {
			now := clock.Now()
			kept := mine[:0]
			for _, l := range mine {
				if l.end.After(now) {
					kept = append(kept, l)
				}
			}
			mine = kept
		}
		for _, o := range ops {
			expire()
			switch o.Kind % 4 {
			case 0, 1:
				kind := Shared
				if o.Kind%4 == 1 {
					kind = Exclusive
				}
				d := time.Duration(o.Seconds%60+1) * time.Second
				tk, err := s.Acquire(dep, clientName(o.Client), kind, d)
				// Model what must have happened.
				var excl, shared int
				for _, l := range mine {
					if l.kind == Exclusive {
						excl++
					} else {
						shared++
					}
				}
				shouldFail := excl > 0 ||
					(kind == Exclusive && shared > 0) ||
					(kind == Shared && shared >= limit)
				if shouldFail != (err != nil) {
					return false
				}
				if err == nil {
					mine = append(mine, live{id: tk.ID, kind: kind, end: tk.End})
				}
			case 2:
				if len(mine) > 0 {
					idx := int(o.Client) % len(mine)
					if s.Release(mine[idx].id) != nil {
						return false
					}
					mine = append(mine[:idx], mine[idx+1:]...)
				}
			case 3:
				clock.Advance(time.Duration(o.Seconds%30) * time.Second)
			}
			expire()
			if got := activeLeases(s, dep); got != len(mine) {
				return false
			}
			inUse, excl := s.InUse(dep)
			if inUse != (len(mine) > 0) {
				return false
			}
			wantExcl := len(mine) > 0 && mine[0].kind == Exclusive
			if excl != wantExcl {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func clientName(c uint8) string {
	return "client-" + string(rune('a'+c%8))
}
