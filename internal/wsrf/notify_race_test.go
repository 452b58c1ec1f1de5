package wsrf

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// TestBrokerConcurrentChurn hammers one broker with parallel subscribers
// and publishers (run under -race in CI). Every delivery Publish reports
// must have fired a sink, and afterwards a final publish on each topic
// reaches exactly the subscribed sinks.
func TestBrokerConcurrentChurn(t *testing.T) {
	b := NewBroker(nil)
	const (
		topics     = 3
		goroutines = 8
		rounds     = 200
	)
	topicName := func(j int) string { return fmt.Sprintf("churn-%d", j%topics) }

	var hits, reported atomic.Uint64
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < rounds; j++ {
				if _, err := b.Subscribe(topicName(j), SinkFunc(func(Notification) { hits.Add(1) })); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	for i := 0; i < goroutines/2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < rounds; j++ {
				reported.Add(uint64(b.Publish(topicName(j), "churn-test", nil)))
			}
		}()
	}
	wg.Wait()
	if h, r := hits.Load(), reported.Load(); h != r {
		t.Fatalf("sinks fired %d times during churn, Publish reported %d", h, r)
	}

	const want = goroutines * rounds
	hitsBefore := hits.Load()
	got := 0
	for j := 0; j < topics; j++ {
		got += b.Publish(topicName(j), "churn-test", nil)
	}
	if got != want {
		t.Fatalf("final publish reached %d sinks, want %d", got, want)
	}
	if h := hits.Load() - hitsBefore; h != uint64(want) {
		t.Fatalf("sinks fired %d times, want %d", h, want)
	}
}
