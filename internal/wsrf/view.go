package wsrf

import (
	"sync"
	"sync/atomic"
)

// View is a value derived from all of a home's documents — an index a
// registry answers reads from instead of decoding every document per call.
// It is rebuilt on the first Get after the home changed, so writes pay one
// atomic add and reads pay for a rebuild only when something changed since
// the last one.
//
// Every Create, install, mutation and Destroy moves the home's generation
// after applying the change, under the lock that applies it. A build is
// labelled with the generation read before it scans, so a write that races
// the scan leaves the label behind and the next Get rebuilds; a Get that
// starts after a write returned always sees that write.
//
// Lock order: a build holds the view's mutex, then takes the home's lock
// (through All) and each resource's read lock in turn. No writer may Get a
// view while it holds a resource lock.
type View[T any] struct {
	home  *Home
	build func(all []*Resource) T
	mu    sync.Mutex // serialises builds
	cur   atomic.Pointer[built[T]]
}

type built[T any] struct {
	gen uint64
	val T
}

// NewView derives a value from h: build receives the live resources in key
// order and reads each document with Resource.Read. The value it returns is
// shared by every Get until the next rebuild, so nobody may modify it.
func NewView[T any](h *Home, build func(all []*Resource) T) *View[T] {
	return &View[T]{home: h, build: build}
}

// Get returns the value derived from the home's current documents.
func (v *View[T]) Get() T {
	if b := v.cur.Load(); b != nil && b.gen == v.home.gen.Load() {
		return b.val
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	gen := v.home.gen.Load()
	if b := v.cur.Load(); b != nil && b.gen == gen {
		return b.val
	}
	b := &built[T]{gen: gen, val: v.build(v.home.All())}
	v.cur.Store(b)
	return b.val
}
