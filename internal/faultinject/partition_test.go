package faultinject

import (
	"net/http"
	"testing"
)

// sourced builds a round tripper carrying a source identity, backed by an
// always-200 backend.
func sourced(in *Injector, source string, hits *int) http.RoundTripper {
	return in.WrapSource(source)(okBase(hits))
}

func TestPartitionSeversBothDirections(t *testing.T) {
	in := New(1)
	hits := 0
	a := sourced(in, "a:1", &hits)
	b := sourced(in, "b:2", &hits)
	in.Partition([]string{"a:1"}, []string{"b:2", "c:3"})

	// Cross-half traffic is dropped, in both directions.
	if _, err := get(t, a, "http://b:2/x", 0); err == nil {
		t.Fatal("a→b crossed the partition")
	}
	if _, err := get(t, b, "http://a:1/x", 0); err == nil {
		t.Fatal("b→a crossed the partition")
	}
	if hits != 0 {
		t.Fatalf("severed traffic reached a backend %d times", hits)
	}
	// Traffic within a half flows normally.
	if _, err := get(t, b, "http://c:3/x", 0); err != nil {
		t.Fatalf("b→c within a half failed: %v", err)
	}
	// The severed requests count as drops on the destination.
	if st := in.Stats("a:1"); st.Dropped != 1 {
		t.Fatalf("stats(a:1) = %+v", st)
	}
}

func TestPartitionIgnoresSourcelessClients(t *testing.T) {
	in := New(1)
	in.Partition([]string{"a:1"}, []string{"b:2"})
	admin := in.Wrap(okBase(nil)) // no source identity
	if _, err := get(t, admin, "http://a:1/x", 0); err != nil {
		t.Fatalf("admin→a failed: %v", err)
	}
	if _, err := get(t, admin, "http://b:2/x", 0); err != nil {
		t.Fatalf("admin→b failed: %v", err)
	}
	if in.severed("", "b:2") {
		t.Fatal("sourceless request reported as severed")
	}
	if !in.severed("a:1", "b:2") || !in.severed("b:2", "a:1") {
		t.Fatal("partition must sever both directions")
	}
}

func TestHealRestoresCrossHalfTraffic(t *testing.T) {
	in := New(1)
	a := sourced(in, "a:1", nil)
	in.Partition([]string{"a:1"}, []string{"b:2"})
	if _, err := get(t, a, "http://b:2/x", 0); err == nil {
		t.Fatal("partition not active")
	}
	in.Heal()
	if _, err := get(t, a, "http://b:2/x", 0); err != nil {
		t.Fatalf("healed link still severed: %v", err)
	}
	if in.severed("a:1", "b:2") {
		t.Fatal("severed still true after Heal")
	}
}

func TestPartitionComposesWithRules(t *testing.T) {
	in := New(1)
	a := sourced(in, "a:1", nil)
	in.Partition([]string{"a:1"}, []string{"b:2"})
	in.Drop("c:3") // per-dest rule on a same-side destination
	if _, err := get(t, a, "http://c:3/x", 0); err == nil {
		t.Fatal("per-dest rule should still apply to traffic the partition lets through")
	}
	// A new Partition replaces the previous halves entirely.
	in.Partition([]string{"d:4"}, []string{"e:5"})
	if _, err := get(t, a, "http://b:2/x", 0); err != nil {
		t.Fatalf("old partition survived replacement: %v", err)
	}
}
