package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
)

// clients is the closed-loop client count. GLARE's callers (enactors,
// schedulers, provider tools) wait for each reply, and the sites run in
// the benchmark's own process, so two clients already saturate the 2-vCPU
// box the ledger is kept on.
const clients = 2

// slices is how many equal consecutive parts the timed ops are cut into
// for ops_s (see measurement.rate).
const slices = 5

// measurement is what one timed window yields, before it is turned into
// named metrics.
type measurement struct {
	ops  int // timed ops that ran
	from int // index of the first timed op
	// latencies[i] is the latency of op from+i in ns (0 = not run).
	latencies []int64
	// done holds the completion times of the ops that ran, in ns since
	// the window opened, ascending.
	done     []int64
	cpuPerOp float64 // µs
	allocs   float64 // per op
	bytes    float64 // per op
	heapMB   float64 // live heap once the window has closed
}

// rate is the throughput over the first n ops to complete, in ops/s: they
// are cut into `slices` equal consecutive groups and the median group's
// rate is returned, so one noisy second does not move it.
func (m measurement) rate(n int) float64 {
	return medianSliceRate(m.done[:min(n, len(m.done))], slices)
}

// drive runs ops [from, to) from `clients` goroutines; op i runs on client
// i%clients, in index order. A client stops before an op that would start
// after deadline. each is called with every op's outcome, concurrently.
func drive(from, to int, deadline time.Time, do func(client, i int) error, each func(i int, start, end time.Time, err error)) {
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			first := from + ((c-from)%clients+clients)%clients
			for i := first; i < to; i += clients {
				start := time.Now()
				if start.After(deadline) {
					return
				}
				err := do(c, i)
				each(i, start, time.Now(), err)
			}
		}(c)
	}
	wg.Wait()
}

// failures collects op errors from concurrent clients.
type failures struct {
	mu    sync.Mutex
	n     int
	first error
}

func (f *failures) add(err error) {
	f.mu.Lock()
	f.n++
	if f.first == nil {
		f.first = err
	}
	f.mu.Unlock()
}

// warmUp runs ops [0, warm) untimed: it fills connection pools, caches the
// workload expects warm, and lazy state.
func warmUp(warm int, do func(client, i int) error, f *failures) {
	drive(0, warm, time.Now().Add(time.Hour), do, func(i int, _, _ time.Time, err error) {
		if err != nil {
			f.add(fmt.Errorf("warm-up op %d: %w", i, err))
		}
	})
}

// runTimed drives ops [from, to) and measures them. It stops early when
// the window has lasted longer than limit, so a slow machine cannot blow
// the run-time budget; ops not reached are not attempted.
func runTimed(from, to int, limit time.Duration, do func(client, i int) error, f *failures) measurement {
	m := measurement{from: from, latencies: make([]int64, to-from)}
	done := make([]int64, to-from) // completion time of each op, ns since t0
	runtime.GC()
	var before, after, settled runtime.MemStats
	runtime.ReadMemStats(&before)
	cpu0 := cpuTime()
	t0 := time.Now()
	drive(from, to, t0.Add(limit), do, func(i int, start, end time.Time, err error) {
		m.latencies[i-from] = int64(end.Sub(start))
		done[i-from] = int64(end.Sub(t0))
		if err != nil {
			f.add(fmt.Errorf("op %d: %w", i, err))
		}
	})
	cpu1 := cpuTime()
	runtime.ReadMemStats(&after)
	runtime.GC()
	runtime.ReadMemStats(&settled)

	for _, d := range done {
		if d != 0 {
			m.done = append(m.done, d)
		}
	}
	sort.Slice(m.done, func(i, j int) bool { return m.done[i] < m.done[j] })
	ops := float64(len(m.done))
	m.ops = len(m.done)
	m.cpuPerOp = float64(cpu1-cpu0) / 1e3 / ops
	m.allocs = float64(after.Mallocs-before.Mallocs) / ops
	m.bytes = float64(after.TotalAlloc-before.TotalAlloc) / ops
	m.heapMB = float64(settled.HeapAlloc) / (1 << 20)
	return m
}

// cpuTime is the process's user+system CPU time: the clients, every
// in-process site and the garbage collector.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// medianSliceRate cuts ascending completion times (ns since the window
// opened) into k equal consecutive groups and returns the median group's
// rate in ops/s.
func medianSliceRate(sorted []int64, k int) float64 {
	if len(sorted) < k {
		k = 1
	}
	if len(sorted) == 0 {
		return 0
	}
	rates := make([]float64, 0, k)
	prevEnd, prevIdx := int64(0), 0
	for s := 1; s <= k; s++ {
		idx := len(sorted) * s / k
		end := sorted[idx-1]
		rates = append(rates, float64(idx-prevIdx)/(float64(end-prevEnd)/1e9))
		prevEnd, prevIdx = end, idx
	}
	return percentile(rates, 50)
}

// percentile returns the p-th percentile (nearest rank) of vals, 0 for an
// empty slice. vals is not modified.
func percentile(vals []float64, p float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	sorted := append([]float64(nil), vals...)
	sort.Float64s(sorted)
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// latencyUS returns the p-th percentile, in µs, of the non-zero latencies.
func latencyUS(ns []int64, p float64) float64 {
	vals := make([]float64, 0, len(ns))
	for _, v := range ns {
		if v != 0 {
			vals = append(vals, float64(v)/1e3)
		}
	}
	return percentile(vals, p)
}
