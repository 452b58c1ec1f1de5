package cas

import (
	"fmt"
	"testing"
	"time"

	"glare/internal/simclock"
)

func blob(n int, size int64) Entry {
	k := Key{Algo: "md5", Sum: fmt.Sprintf("%032x", n)}
	return Entry{Key: k, Sum: k.Sum, Size: size, MD5: k.Sum, Artifact: fmt.Sprintf("a%d", n)}
}

func TestPutGetRoundTrip(t *testing.T) {
	s := New(simclock.NewVirtual(time.Time{}), 100)
	e := blob(1, 40)
	if ev, ok := s.Put(e); !ok || len(ev) != 0 {
		t.Fatalf("Put = %v, %v", ev, ok)
	}
	got, ok := s.Get(e.Key)
	if !ok || got.Artifact != "a1" || got.Size != 40 || got.Added.IsZero() {
		t.Fatalf("Get = %+v, %v", got, ok)
	}
	if _, ok := s.Get(Key{Algo: "md5", Sum: "missing"}); ok {
		t.Fatal("Get of absent key succeeded")
	}
	entries, bytes, budget, ingests := s.Stats()
	if entries != 1 || bytes != 40 || budget != 100 || ingests != 1 {
		t.Fatalf("Stats = %d, %d, %d, %d", entries, bytes, budget, ingests)
	}
}

func TestLRUEvictionRespectsBudget(t *testing.T) {
	s := New(simclock.NewVirtual(time.Time{}), 100)
	s.Put(blob(1, 40))
	s.Put(blob(2, 40))
	// Touch 1 so 2 is the LRU victim.
	s.Get(blob(1, 0).Key)
	ev, ok := s.Put(blob(3, 40))
	if !ok || len(ev) != 1 || ev[0].Artifact != "a2" {
		t.Fatalf("eviction = %+v, %v (want a2 evicted)", ev, ok)
	}
	if _, ok := s.Get(blob(2, 0).Key); ok {
		t.Fatal("evicted entry still readable")
	}
	if _, ok := s.Get(blob(1, 0).Key); !ok {
		t.Fatal("recently used entry was evicted")
	}
	if _, bytes, _, _ := s.Stats(); bytes > 100 {
		t.Fatalf("bytes %d over budget", bytes)
	}
}

func TestOversizeBlobRejected(t *testing.T) {
	s := New(simclock.NewVirtual(time.Time{}), 100)
	s.Put(blob(1, 60))
	if ev, ok := s.Put(blob(2, 101)); ok || len(ev) != 0 {
		t.Fatalf("oversize Put = %v, %v; want rejected without evictions", ev, ok)
	}
	if _, ok := s.Get(blob(1, 0).Key); !ok {
		t.Fatal("oversize reject evicted an existing entry")
	}
}

func TestReplaceSameKeyAdjustsBytes(t *testing.T) {
	s := New(simclock.NewVirtual(time.Time{}), 100)
	s.Put(blob(1, 40))
	e := blob(1, 70)
	if _, ok := s.Put(e); !ok {
		t.Fatal("replace Put failed")
	}
	entries, bytes, _, ingests := s.Stats()
	if entries != 1 || bytes != 70 {
		t.Fatalf("after replace: entries %d bytes %d", entries, bytes)
	}
	if ingests != 1 {
		t.Fatalf("replace counted as new ingest: %d", ingests)
	}
}

func TestCorruptDetectableAndDeletable(t *testing.T) {
	s := New(simclock.NewVirtual(time.Time{}), 100)
	e := blob(1, 10)
	s.Put(e)
	if !s.Corrupt(e.Key) {
		t.Fatal("Corrupt of held key failed")
	}
	if s.Corrupt(Key{Algo: "md5", Sum: "none"}) {
		t.Fatal("Corrupt of absent key succeeded")
	}
	got, _ := s.Get(e.Key)
	if got.Sum == got.Key.Sum {
		t.Fatal("corrupted entry still verifies")
	}
	if _, ok := s.Delete(e.Key); !ok {
		t.Fatal("Delete failed")
	}
	if _, bytes, _, _ := s.Stats(); bytes != 0 {
		t.Fatalf("bytes %d after delete", bytes)
	}
}

func TestKeyStringAndIsZero(t *testing.T) {
	k := Key{Algo: "sha256", Sum: "abc123"}
	if got := k.String(); got != "sha256:abc123" {
		t.Fatalf("String = %q", got)
	}
	if !(Key{}).IsZero() || k.IsZero() {
		t.Fatal("IsZero wrong")
	}
}
