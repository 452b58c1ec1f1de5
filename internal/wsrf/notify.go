package wsrf

import (
	"fmt"
	"sync"
	"time"

	"glare/internal/simclock"
	"glare/internal/xmlutil"
)

// Notification is one event delivered to subscribed sinks. WS-Notification
// carries the topic, the producing resource's key and a message document.
type Notification struct {
	Topic    string
	Producer string // resource key or service name that produced the event
	Message  *xmlutil.Node
	Sent     time.Time
}

// Sink consumes notifications. Implementations must be safe for concurrent
// use; delivery happens on the publisher's goroutine pool.
type Sink interface {
	Notify(n Notification)
}

// SinkFunc adapts a function to the Sink interface.
type SinkFunc func(n Notification)

// Notify calls f(n).
func (f SinkFunc) Notify(n Notification) { f(n) }

// SubscriptionID identifies one subscription; the Subscribe wire op
// returns it to the subscriber.
type SubscriptionID uint64

// Broker is a topic-based notification broker (WS-Notification analogue).
// GLARE resources publish lifecycle and update events through it; Fig. 13
// measures registry load as the number of sinks and the notify rate grow.
type Broker struct {
	mu     sync.RWMutex
	clock  simclock.Clock
	nextID SubscriptionID
	subs   map[string]map[SubscriptionID]Sink // topic -> id -> sink
}

// NewBroker creates an empty broker.
func NewBroker(clock simclock.Clock) *Broker {
	if clock == nil {
		clock = simclock.Real
	}
	return &Broker{clock: clock, subs: make(map[string]map[SubscriptionID]Sink)}
}

// Subscribe registers a sink on a topic and returns its subscription ID.
func (b *Broker) Subscribe(topic string, s Sink) (SubscriptionID, error) {
	if topic == "" {
		return 0, fmt.Errorf("wsrf: empty topic")
	}
	if s == nil {
		return 0, fmt.Errorf("wsrf: nil sink")
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.nextID++
	id := b.nextID
	m := b.subs[topic]
	if m == nil {
		m = make(map[SubscriptionID]Sink)
		b.subs[topic] = m
	}
	m[id] = s
	return id, nil
}

// HasSinks reports whether any sink is subscribed to the topic, so a
// publisher can skip building a message nobody would receive.
func (b *Broker) HasSinks(topic string) bool {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return len(b.subs[topic]) > 0
}

// Publish delivers a message to every sink subscribed to the topic,
// synchronously on the caller's goroutine. It returns the number of sinks
// notified.
func (b *Broker) Publish(topic, producer string, msg *xmlutil.Node) int {
	b.mu.RLock()
	m := b.subs[topic]
	sinks := make([]Sink, 0, len(m))
	for _, s := range m {
		sinks = append(sinks, s)
	}
	b.mu.RUnlock()
	n := Notification{Topic: topic, Producer: producer, Message: msg, Sent: b.clock.Now()}
	for _, s := range sinks {
		s.Notify(n)
	}
	return len(sinks)
}

// Standard topic names used by the registries.
const (
	TopicResourceCreated   = "ResourceCreated"
	TopicResourceUpdated   = "ResourceUpdated"
	TopicResourceDestroyed = "ResourceDestroyed"
	TopicDeployment        = "Deployment"
	TopicElection          = "Election"
)
