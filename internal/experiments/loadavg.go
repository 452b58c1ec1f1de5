package experiments

import (
	"math"
	"sync"
	"time"

	"glare/internal/telemetry"
)

// loadTracker is Fig. 13's instrument: a Unix-style exponentially decayed
// load average over a service's run queue. The paper measures "the load
// average ... as the load on the Activity Type Registry during the last
// minute (using Unix uptime command)"; here the run queue is the set of
// requests currently being handled, sampled and decayed exactly like the
// kernel's loadavg. Callers bracket request handling with enter/exit; a
// sampler goroutine (or explicit sample calls, for deterministic tests)
// folds the instantaneous queue length into the average.
type loadTracker struct {
	queue  telemetry.Gauge
	period time.Duration
	decay  float64

	mu   sync.Mutex
	load float64
}

// newLoadTracker samples the run queue every period into an average over
// window (the kernel's classic values are 5 s and 1 min).
func newLoadTracker(period, window time.Duration) *loadTracker {
	return &loadTracker{period: period, decay: math.Exp(-period.Seconds() / window.Seconds())}
}

// enter marks a request entering the run queue.
func (t *loadTracker) enter() { t.queue.Inc() }

// exit marks a request leaving it. An exit without a matching enter is
// clamped: like a kernel run queue, the queue never goes negative.
func (t *loadTracker) exit() { t.queue.DecFloor() }

// sample folds the current queue length into the load average, exactly as
// the kernel does: load = load*decay + queue*(1-decay).
func (t *loadTracker) sample() {
	q := float64(t.queue.Value())
	t.mu.Lock()
	defer t.mu.Unlock()
	t.load = t.load*t.decay + q*(1-t.decay)
}

// average returns the current load average.
func (t *loadTracker) average() float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.load
}

// start runs the periodic sampler until stop is closed.
func (t *loadTracker) start(stop <-chan struct{}) {
	go func() {
		tick := time.NewTicker(t.period)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				t.sample()
			}
		}
	}()
}
