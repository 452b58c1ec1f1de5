package faultinject

import (
	"context"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"
)

// rtFunc adapts a function to http.RoundTripper.
type rtFunc func(*http.Request) (*http.Response, error)

func (f rtFunc) RoundTrip(req *http.Request) (*http.Response, error) { return f(req) }

// okBase is a backend that always answers 200.
func okBase(hits *int) http.RoundTripper {
	return rtFunc(func(req *http.Request) (*http.Response, error) {
		if hits != nil {
			*hits++
		}
		return &http.Response{
			StatusCode: http.StatusOK,
			Body:       io.NopCloser(strings.NewReader("ok")),
			Request:    req,
		}, nil
	})
}

func get(t *testing.T, rt http.RoundTripper, url string, timeout time.Duration) (*http.Response, error) {
	t.Helper()
	ctx := context.Background()
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	return rt.RoundTrip(req)
}

func TestDropIsImmediateAndTyped(t *testing.T) {
	in := New(1)
	hits := 0
	rt := in.Wrap(okBase(&hits))
	in.Drop("1.2.3.4:80")

	_, err := get(t, rt, "http://1.2.3.4:80/x", 0)
	ferr, ok := err.(*Error)
	if !ok {
		t.Fatalf("expected *Error, got %T: %v", err, err)
	}
	if ferr.Mode != Drop || ferr.Dest != "1.2.3.4:80" {
		t.Fatalf("error = %+v", ferr)
	}
	if hits != 0 {
		t.Fatalf("dropped request reached the backend %d times", hits)
	}
	if st := in.Stats("1.2.3.4:80"); st.Dropped != 1 || st.Passed != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestRemainingDisarmsRule(t *testing.T) {
	in := New(1)
	hits := 0
	rt := in.Wrap(okBase(&hits))
	in.Set("a:1", Rule{Mode: Drop, Remaining: 2})

	for i := 0; i < 2; i++ {
		if _, err := get(t, rt, "http://a:1/x", 0); err == nil {
			t.Fatalf("request %d should have been dropped", i)
		}
	}
	if _, err := get(t, rt, "http://a:1/x", 0); err != nil {
		t.Fatalf("rule should be disarmed after 2 injections: %v", err)
	}
	st := in.Stats("a:1")
	if st.Dropped != 2 || st.Passed != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if hits != 1 {
		t.Fatalf("backend hits = %d, want 1", hits)
	}
}

func TestRestoreAndClear(t *testing.T) {
	in := New(1)
	rt := in.Wrap(okBase(nil))
	in.Drop("a:1")
	in.Drop("b:2")

	in.Restore("a:1")
	if _, err := get(t, rt, "http://a:1/x", 0); err != nil {
		t.Fatalf("restored dest still faulted: %v", err)
	}
	if _, err := get(t, rt, "http://b:2/x", 0); err == nil {
		t.Fatal("untouched rule should survive Restore of another dest")
	}
	in.Clear()
	if _, err := get(t, rt, "http://b:2/x", 0); err != nil {
		t.Fatalf("Clear left a rule behind: %v", err)
	}
}

func TestWildcardMatchesEveryDest(t *testing.T) {
	in := New(1)
	rt := in.Wrap(okBase(nil))
	in.Set(Wildcard, Rule{Mode: Drop})

	if _, err := get(t, rt, "http://anything:9/x", 0); err == nil {
		t.Fatal("wildcard rule did not fire")
	}
	// A specific rule shadows the wildcard.
	in.Set("special:1", Rule{Mode: Pass})
	if _, err := get(t, rt, "http://special:1/x", 0); err != nil {
		t.Fatalf("specific Pass rule should shadow wildcard: %v", err)
	}
}

func TestBlackHoleHonorsContext(t *testing.T) {
	in := New(1)
	rt := in.Wrap(okBase(nil))
	in.BlackHole("a:1")

	start := time.Now()
	_, err := get(t, rt, "http://a:1/x", 30*time.Millisecond)
	if err == nil {
		t.Fatal("black-holed request returned a response")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("black hole ignored the context deadline (%v)", elapsed)
	}
	if st := in.Stats("a:1"); st.BlackHoled != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestDelayHoldsThenPasses(t *testing.T) {
	in := New(1)
	hits := 0
	rt := in.Wrap(okBase(&hits))
	in.Delay("a:1", 20*time.Millisecond)

	start := time.Now()
	if _, err := get(t, rt, "http://a:1/x", 0); err != nil {
		t.Fatalf("delayed request failed: %v", err)
	}
	if elapsed := time.Since(start); elapsed < 20*time.Millisecond {
		t.Fatalf("delay not applied (%v)", elapsed)
	}
	if hits != 1 {
		t.Fatalf("backend hits = %d, want 1", hits)
	}
}

// TestSeededDeterminism drives two injectors with the same probabilistic
// rule and seed through an identical request sequence: the fault patterns
// must match decision for decision.
func TestSeededDeterminism(t *testing.T) {
	pattern := func(seed int64) []bool {
		in := New(seed)
		in.Set("a:1", Rule{Mode: Drop, Prob: 0.5})
		rt := in.Wrap(okBase(nil))
		var out []bool
		for i := 0; i < 64; i++ {
			_, err := get(t, rt, "http://a:1/x", 0)
			out = append(out, err != nil)
		}
		return out
	}
	a, b := pattern(1234), pattern(1234)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at request %d", i)
		}
	}
	// Sanity: a 0.5 rule actually fires sometimes and passes sometimes.
	dropped := 0
	for _, d := range a {
		if d {
			dropped++
		}
	}
	if dropped == 0 || dropped == len(a) {
		t.Fatalf("Prob 0.5 produced degenerate pattern (%d/%d dropped)", dropped, len(a))
	}
}

func TestModeString(t *testing.T) {
	for m, want := range map[Mode]string{Pass: "pass", Drop: "drop", Delay: "delay", BlackHole: "blackhole"} {
		if m.String() != want {
			t.Fatalf("%d.String() = %q, want %q", m, m.String(), want)
		}
	}
}
