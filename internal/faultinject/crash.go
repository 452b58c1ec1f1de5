package faultinject

import "sync"

// StoreCrasher is the durable-store counterpart of the transport injector:
// it kills a store mid-append, leaving a torn frame on disk exactly the
// way a power cut would, so crash recovery is provable in-process (and
// under -race). Plug it into store.Options.AppendHook.
//
//	crasher := faultinject.NewStoreCrasher()
//	crasher.ArmAfter(10, 0.5) // 10th append writes half a frame, then dies
//	st, _ := store.Open(store.Options{Dir: dir, AppendHook: crasher.Hook})
type StoreCrasher struct {
	mu        sync.Mutex
	countdown int     // appends left before the crash; 0 = disarmed
	cut       float64 // fraction of the fatal frame that reaches disk
	crashed   bool
}

// NewStoreCrasher returns a disarmed crasher; every append passes through
// until ArmAfter is called.
func NewStoreCrasher() *StoreCrasher { return &StoreCrasher{} }

// ArmAfter schedules the crash on the n-th append from now (n >= 1). cut
// is the fraction of that append's frame written before the "power cut":
// 0 loses the record entirely, 0.5 tears it mid-frame, 1 lands the whole
// frame but dies before any fsync.
func (c *StoreCrasher) ArmAfter(n int, cut float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if n < 1 {
		n = 1
	}
	if cut < 0 {
		cut = 0
	}
	if cut > 1 {
		cut = 1
	}
	c.countdown, c.cut, c.crashed = n, cut, false
}

// Hook is the store.Options.AppendHook implementation.
func (c *StoreCrasher) Hook(frame []byte) (keep int, crash bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.countdown == 0 {
		return len(frame), false
	}
	c.countdown--
	if c.countdown > 0 {
		return len(frame), false
	}
	c.crashed = true
	return int(float64(len(frame)) * c.cut), true
}

// Crashed reports whether the armed crash has fired.
func (c *StoreCrasher) Crashed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.crashed
}
