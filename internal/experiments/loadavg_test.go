package experiments

import (
	"math"
	"sync"
	"testing"
	"time"
)

func TestLoadTrackerQueue(t *testing.T) {
	lt := newLoadTracker(5*time.Second, time.Minute)
	lt.enter()
	lt.enter()
	if q := lt.queue.Value(); q != 2 {
		t.Fatalf("queue = %d", q)
	}
	lt.exit()
	if q := lt.queue.Value(); q != 1 {
		t.Fatalf("queue = %d", q)
	}
	lt.exit()
	lt.exit() // extra exits clamp at zero
	if q := lt.queue.Value(); q != 0 {
		t.Fatalf("queue = %d", q)
	}
}

func TestLoadConvergesToSteadyQueue(t *testing.T) {
	lt := newLoadTracker(time.Second, time.Minute)
	const depth = 8
	for i := 0; i < depth; i++ {
		lt.enter()
	}
	// After many windows, load approaches queue depth, like Unix loadavg.
	for i := 0; i < 600; i++ {
		lt.sample()
	}
	if got := lt.average(); math.Abs(got-depth) > 0.1 {
		t.Fatalf("load = %v, want ~%d", got, depth)
	}
	// Queue drains: load decays toward zero.
	for i := 0; i < depth; i++ {
		lt.exit()
	}
	for i := 0; i < 600; i++ {
		lt.sample()
	}
	if got := lt.average(); got > 0.1 {
		t.Fatalf("decayed load = %v", got)
	}
}

func TestLoadMonotoneInQueueDepth(t *testing.T) {
	loadFor := func(depth int) float64 {
		lt := newLoadTracker(time.Second, time.Minute)
		for i := 0; i < depth; i++ {
			lt.enter()
		}
		for i := 0; i < 60; i++ {
			lt.sample()
		}
		return lt.average()
	}
	prev := -1.0
	for _, d := range []int{1, 4, 16, 64} {
		l := loadFor(d)
		if l <= prev {
			t.Fatalf("load not monotone: depth %d -> %v (prev %v)", d, l, prev)
		}
		prev = l
	}
}

func TestLoadTrackerStart(t *testing.T) {
	lt := newLoadTracker(5*time.Millisecond, 50*time.Millisecond)
	lt.enter()
	stop := make(chan struct{})
	lt.start(stop)
	deadline := time.After(2 * time.Second)
	for lt.average() == 0 {
		select {
		case <-deadline:
			t.Fatal("sampler never ran")
		case <-time.After(2 * time.Millisecond):
		}
	}
	close(stop)
}

func TestLoadTrackerConcurrency(t *testing.T) {
	lt := newLoadTracker(5*time.Second, time.Minute)
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				lt.enter()
				lt.sample()
				lt.exit()
			}
		}()
	}
	wg.Wait()
	if q := lt.queue.Value(); q != 0 {
		t.Fatalf("queue = %d after balanced enter/exit", q)
	}
}
