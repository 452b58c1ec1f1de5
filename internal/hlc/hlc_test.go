package hlc

import (
	"sync"
	"testing"
	"time"

	"glare/internal/simclock"
)

func TestNowIsStrictlyMonotonicOnAStalledClock(t *testing.T) {
	v := simclock.NewVirtual(time.Time{})
	c := New("A1", v)
	prev := c.Now()
	for i := 0; i < 100; i++ {
		next := c.Now()
		if !next.After(prev) {
			t.Fatalf("stamp %d not after its predecessor: %v <= %v", i, next, prev)
		}
		prev = next
	}
	if c.Logical() != 100 {
		t.Fatalf("logical = %d, want 100 bumps on a stalled physical clock", c.Logical())
	}
	v.Advance(time.Millisecond)
	if next := c.Now(); !next.After(prev) || c.Logical() != 0 {
		t.Fatalf("physical advance must lead and reset logical: %v after %v, logical=%d",
			next, prev, c.Logical())
	}
}

// The HLC causality guarantee: an event stamped after receiving a message
// orders strictly after every stamp carried by that message, even when the
// receiver's physical clock runs far behind the sender's.
func TestObservePreservesCausalityAcrossSkew(t *testing.T) {
	base := simclock.NewVirtual(time.Time{})
	fast := simclock.NewSkewed(base)
	fast.SetOffset(10 * time.Minute)
	slow := simclock.NewSkewed(base)
	slow.SetOffset(-10 * time.Minute)

	sender := New("Fast1", fast)
	receiver := New("Slow1", slow)

	msg := sender.Now()
	off := receiver.Observe("Fast1", msg)
	if off < 19*time.Minute {
		t.Fatalf("observed offset %v, want about +20m (sender leads by skew sum)", off)
	}
	if after := receiver.Now(); !after.After(msg) {
		t.Fatalf("post-receive stamp %v does not order after the message stamp %v", after, msg)
	}
	if lead := receiver.wall.Sub(slow.Now()); lead < 19*time.Minute {
		t.Fatalf("receiver lead %v, want the inherited divergence", lead)
	}
	// Raw wall clocks get this wrong: the receiver's own clock stays behind.
	if raw := slow.Now(); raw.After(msg) {
		t.Fatal("test premise broken: the raw skewed clock should trail the message")
	}
}

func TestObserveIgnoresZeroAndTracksPeerOffsets(t *testing.T) {
	v := simclock.NewVirtual(time.Time{})
	c := New("A1", v)
	before := c.Now()
	if off := c.Observe("Old1", time.Time{}); off != 0 {
		t.Fatalf("zero stamp produced offset %v", off)
	}
	if len(c.peers) != 0 {
		t.Fatal("zero stamp must not be recorded as a peer observation")
	}
	c.Observe("B1", v.Now().Add(time.Minute))
	c.Observe("C1", v.Now().Add(-3*time.Minute))
	if offs := c.peers; offs["B1"] != time.Minute || offs["C1"] != -3*time.Minute {
		t.Fatalf("peer offsets = %v", offs)
	}
	peer, off := c.MaxPeerOffset()
	if peer != "C1" || off != -3*time.Minute {
		t.Fatalf("max offset = %s %v, want C1 -3m", peer, off)
	}
	if next := c.Now(); !next.After(before) {
		t.Fatal("monotonicity lost across observations")
	}
}

func TestSkewAlarmFiresBeyondBound(t *testing.T) {
	v := simclock.NewVirtual(time.Time{})
	c := New("A1", v)
	var mu sync.Mutex
	fired := map[string]time.Duration{}
	c.OnSkew(func(peer string, off time.Duration) {
		mu.Lock()
		fired[peer] = off
		mu.Unlock()
	})
	c.SetSkewBound(2 * time.Second)

	c.Observe("NearPeer", v.Now().Add(time.Second))
	mu.Lock()
	n := len(fired)
	mu.Unlock()
	if n != 0 {
		t.Fatalf("alarm fired inside the bound: %v", fired)
	}
	c.Observe("FastPeer", v.Now().Add(time.Minute))
	c.Observe("SlowPeer", v.Now().Add(-time.Minute))
	mu.Lock()
	defer mu.Unlock()
	if fired["FastPeer"] < 2*time.Second || fired["SlowPeer"] > -2*time.Second {
		t.Fatalf("alarm offsets = %v, want both directions beyond the bound", fired)
	}
}

// Satellite: the (HLC, site name) total order is deterministic for the
// equal-instant conflicts that a shared virtual clock makes common.
func TestSiteNameBreaksEqualInstantTies(t *testing.T) {
	at := time.Date(2005, 11, 12, 0, 0, 0, 0, time.UTC)
	if !Less(at, "A1", at, "B1") || Less(at, "B1", at, "A1") {
		t.Fatal("equal instants must order by site name")
	}
	if Less(at, "A1", at, "A1") || Newer(at, "A1", at, "A1") {
		t.Fatal("identical stamps are neither less nor newer")
	}
	if !Newer(at.Add(time.Nanosecond), "A1", at, "Z9") {
		t.Fatal("instant dominates site name")
	}
	if !Newer(at, "B1", at, "A1") {
		t.Fatal("Newer must mirror Less")
	}
}

func TestClockImplementsSimclockClock(t *testing.T) {
	v := simclock.NewVirtual(time.Time{})
	var c simclock.Clock = New("A1", v)
	done := c.After(time.Second)
	c.Sleep(2 * time.Second) // delegates to the virtual clock: advances it
	select {
	case <-done:
	default:
		t.Fatal("After waiter did not fire through the delegated virtual clock")
	}
}

func TestConcurrentNowAndObserveStaysMonotonic(t *testing.T) {
	v := simclock.NewVirtual(time.Time{})
	c := New("A1", v)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			prev := c.Now()
			for i := 0; i < 200; i++ {
				if g%2 == 0 {
					c.Observe("P1", prev.Add(time.Duration(i)*time.Microsecond))
				}
				next := c.Now()
				if !next.After(prev) {
					t.Errorf("goroutine %d: non-monotonic stamp", g)
					return
				}
				prev = next
			}
		}(g)
	}
	wg.Wait()
}
