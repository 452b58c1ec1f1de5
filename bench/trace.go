package main

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"glare/internal/transport"
)

// Bench-owned tracing. Spans are recorded from outside the program, at
// the seams the program already exposes: the op call itself and a
// round-tripper wrapped around every site's transport client. The server
// side of a round trip is not a span: the time its handler took is what
// the program's own glare_rpc_server_latency histogram reports (see
// layerCounts). Spans stay in memory and are written out when the pass
// ends.

// span is one timed interval. ID 0 is "no span"; Op is the workload's op
// index, the identifier every span of one request shares (-1 when a
// round trip could not be tied to an op, e.g. a late replica copy).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Tag    string `json:"tag,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer collects spans. A nil *tracer records nothing, so untraced
// passes run the same code without the cost.
type tracer struct {
	epoch  time.Time
	nextID atomic.Int64
	mu     sync.Mutex
	spans  []span
	// current holds, per source site, the op in flight there: the parent
	// for round trips the program starts without the caller's context
	// (replica fan-out). Only meaningful while one client drives a site.
	current sync.Map // site name -> *opState
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// opState is what child spans need to know about the op that caused them.
type opState struct {
	op     int64
	spanID int64
}

type opKey struct{}

// begin opens a span; the returned func closes and records it.
func (t *tracer) begin(name, tag string, parent, op int64) (int64, func()) {
	id := t.nextID.Add(1)
	start := time.Since(t.epoch).Nanoseconds()
	return id, func() {
		end := time.Since(t.epoch).Nanoseconds()
		t.mu.Lock()
		t.spans = append(t.spans, span{id, parent, op, name, tag, start, end})
		t.mu.Unlock()
	}
}

// beginOp opens the root span of op i issued from site. The returned
// context carries the op to the round-tripper. Untraced passes get a plain
// context.
func (t *tracer) beginOp(site string, i int) (context.Context, func()) {
	if t == nil {
		return context.Background(), func() {}
	}
	st := &opState{op: int64(i)}
	id, end := t.begin("op", "", 0, st.op)
	st.spanID = id
	t.current.Store(site, st)
	return context.WithValue(context.Background(), opKey{}, st), func() {
		end()
		t.current.Delete(site)
	}
}

// wrapClient installs the client.roundtrip span and the wire-byte count on
// one site's outbound client. Call before the client carries traffic.
func (t *tracer) wrapClient(c *transport.Client, site string, wireBytes *atomic.Int64) {
	c.WrapTransport(func(next http.RoundTripper) http.RoundTripper {
		return roundTripper{t, next, site, wireBytes}
	})
}

type roundTripper struct {
	t         *tracer
	next      http.RoundTripper
	site      string
	wireBytes *atomic.Int64
}

func (rt roundTripper) RoundTrip(req *http.Request) (*http.Response, error) {
	st, _ := req.Context().Value(opKey{}).(*opState)
	if st == nil {
		if cur, ok := rt.t.current.Load(rt.site); ok {
			st = cur.(*opState)
		}
	}
	parent, op := int64(0), int64(-1)
	if st != nil {
		parent, op = st.spanID, st.op
	}
	// Tag: destination host and service, e.g. "127.0.0.1:4711 GLARE".
	tag := req.URL.Host + " " + strings.TrimPrefix(req.URL.Path, transport.ServicePrefix)
	_, end := rt.t.begin("client.roundtrip", tag, parent, op)
	rt.wireBytes.Add(req.ContentLength)
	resp, err := rt.next.RoundTrip(req)
	if err != nil {
		end()
		return resp, err
	}
	// The span ends when the response body has been consumed, which is
	// when the caller's envelope parser has seen the last byte.
	resp.Body = &countingBody{resp.Body, rt.wireBytes, end}
	return resp, nil
}

type countingBody struct {
	io.ReadCloser
	n   *atomic.Int64
	end func()
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n.Add(int64(n))
	return n, err
}

func (b *countingBody) Close() error {
	if b.end != nil {
		b.end()
		b.end = nil
	}
	return b.ReadCloser.Close()
}

// selfTimes returns, per span, its duration minus the part of its interval
// that its child spans cover (children may overlap each other and may
// outlive the parent; only the covered part of the parent counts).
func selfTimes(spans []span) map[int64]int64 {
	children := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int64]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, at := int64(0), s.Start
		for _, k := range kids {
			from, to := max(k.Start, at), min(k.End, s.End)
			if to > from {
				covered += to - from
				at = to
			}
		}
		out[s.ID] = s.End - s.Start - covered
	}
	return out
}

// medianSelfUS is the median self time, in µs, of the spans of each name.
func medianSelfUS(spans []span) map[string]float64 {
	self := selfTimes(spans)
	byName := map[string][]float64{}
	for _, s := range spans {
		byName[s.Name] = append(byName[s.Name], float64(self[s.ID])/1e3)
	}
	out := make(map[string]float64, len(byName))
	for name, vals := range byName {
		out[name] = percentile(vals, 50)
	}
	return out
}

// reset returns the spans recorded so far and starts over.
func (t *tracer) reset() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	spans := t.spans
	t.spans = nil
	return spans
}

func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
