package simclock

import (
	"sync"
	"testing"
	"time"
)

func TestScaledSleepCompressesTime(t *testing.T) {
	c := NewScaled(1000)
	start := time.Now()
	c.Sleep(2 * time.Second) // 2ms real
	real := time.Since(start)
	if real > 500*time.Millisecond {
		t.Fatalf("scaled sleep took %v real", real)
	}
	if real < time.Millisecond {
		t.Fatalf("scaled sleep too fast: %v", real)
	}
}

func TestScaledNowAdvancesFast(t *testing.T) {
	c := NewScaled(1000)
	t0 := c.Now()
	time.Sleep(5 * time.Millisecond)
	if el := c.Now().Sub(t0); el < time.Second {
		t.Fatalf("scaled now advanced only %v", el)
	}
}

func TestScaledFactorClamp(t *testing.T) {
	if NewScaled(0).factor != 1 || NewScaled(-5).factor != 1 {
		t.Fatal("factor not clamped")
	}
	if NewScaled(100).factor != 100 {
		t.Fatal("factor lost")
	}
}

func TestScaledZeroSleep(t *testing.T) {
	c := NewScaled(10)
	start := time.Now()
	c.Sleep(0)
	c.Sleep(-time.Second)
	if time.Since(start) > 100*time.Millisecond {
		t.Fatal("non-positive sleep blocked")
	}
}

func TestScaledAfter(t *testing.T) {
	c := NewScaled(1000)
	select {
	case <-c.After(time.Second): // ~1ms real
	case <-time.After(2 * time.Second):
		t.Fatal("After never fired")
	}
}

// The property Scaled exists for: concurrent sleeps overlap (unlike
// Virtual, whose sleeps serialize into the shared counter).
func TestScaledConcurrentSleepsOverlap(t *testing.T) {
	c := NewScaled(1000)
	const n = 8
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.Sleep(3 * time.Second) // 3ms real each
		}()
	}
	wg.Wait()
	real := time.Since(start)
	// Serialized this would take >= 24ms; overlapped it is ~3ms.
	if real > 20*time.Millisecond {
		t.Fatalf("concurrent scaled sleeps serialized: %v", real)
	}
}
