package simclock

import "time"

// Scaled is a wall clock running Factor times faster: Sleep(d) blocks for
// d/Factor of real time, and Now reports real time stretched by Factor
// from the clock's start.
//
// Unlike Virtual (whose Sleep advances a shared counter and therefore
// serializes concurrent work), Scaled preserves real concurrency:
// goroutines sleeping in parallel overlap exactly as they would in real
// time. The enactment engine's makespan experiments use it so that the
// look-ahead scheduler's deployment/execution overlap is measurable.
type Scaled struct {
	factor int64
	start  time.Time
}

// NewScaled creates a clock running factor times faster than real time;
// factor < 1 is clamped to 1.
func NewScaled(factor int64) *Scaled {
	if factor < 1 {
		factor = 1
	}
	return &Scaled{factor: factor, start: time.Now()}
}

// Now returns the scaled instant: start + factor*(real elapsed).
func (s *Scaled) Now() time.Time {
	return s.start.Add(time.Since(s.start) * time.Duration(s.factor))
}

// Sleep blocks for d of scaled time (d/factor real time).
func (s *Scaled) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	real := d / time.Duration(s.factor)
	if real <= 0 {
		real = time.Microsecond
	}
	time.Sleep(real)
}

// After returns a channel firing after d of scaled time.
func (s *Scaled) After(d time.Duration) <-chan time.Time {
	ch := make(chan time.Time, 1)
	go func() {
		s.Sleep(d)
		ch <- s.Now()
	}()
	return ch
}
