package superpeer

import (
	"strconv"
	"testing"

	"glare/internal/xmlutil"
)

// missesOf reads an agent's consecutive-miss count for one peer.
func missesOf(a *Agent, name string) int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.misses[name]
}

// TestSuspectedAfterTwoMissedViewStatusProbes: a super-peer's rival
// probes are its liveness probes. Two missed ViewStatus probes of a
// member make it Suspected, and one answer clears the count.
func TestSuspectedAfterTwoMissedViewStatusProbes(t *testing.T) {
	h := newChaosHarness(t, 3)
	if _, err := h.agents[0].Coordinate(h.infos, CoordinatorConfig{GroupSize: 3}); err != nil {
		t.Fatal(err)
	}
	sp := h.agents[2]
	if sp.Role() != RoleSuperPeer {
		t.Fatalf("site02 role = %v, want super-peer", sp.Role())
	}
	dest := destOfURL(h.infos[0].BaseURL)
	h.injs[2].Drop(dest)
	for pass := 1; pass <= DefaultSuspicionThreshold; pass++ {
		if sp.Suspected("site00") {
			t.Fatalf("site00 suspected after %d missed probes", pass-1)
		}
		if _, err := sp.CheckRivals(); err != nil {
			t.Fatal(err)
		}
		if got := missesOf(sp, "site00"); got != pass {
			t.Fatalf("after pass %d: site00 misses = %d, want %d", pass, got, pass)
		}
	}
	if !sp.Suspected("site00") {
		t.Fatalf("site00 not suspected after %d missed probes", DefaultSuspicionThreshold)
	}
	if sp.Suspected("site01") || missesOf(sp, "site01") != 0 {
		t.Fatalf("site01 answered every probe but has %d misses", missesOf(sp, "site01"))
	}

	h.injs[2].Restore(dest)
	if _, err := sp.CheckRivals(); err != nil {
		t.Fatal(err)
	}
	if sp.Suspected("site00") || missesOf(sp, "site00") != 0 {
		t.Fatalf("site00 answered but still has %d misses", missesOf(sp, "site00"))
	}
}

// TestTakeoverVerificationPingsDoNotCount: the pings a member makes to
// verify a takeover candidate (VerifyRequest) and the pings a candidate
// makes before taking over (RunTakeover) are pure probes. Only the
// liveness pass moves a miss count, so a count still moves at most once
// per pass.
func TestTakeoverVerificationPingsDoNotCount(t *testing.T) {
	h := newHarness(t, 4)
	if _, err := h.agents[0].Coordinate(h.infos, CoordinatorConfig{GroupSize: 4}); err != nil {
		t.Fatal(err)
	}
	epoch := h.agents[0].View().Epoch
	h.servers[3].Close() // the super-peer

	// site01 asks site00 to verify it three times; each verification
	// pings the dead super-peer.
	req := xmlutil.NewNode("Verify")
	req.SetAttr("down", "site03")
	req.SetAttr("candidate", "site01")
	req.SetAttr("rank", "1001")
	req.SetAttr("epoch", strconv.FormatUint(epoch, 10))
	for i := 0; i < 3; i++ {
		_, _ = h.agents[0].handleVerifyRequest(req.Clone())
	}
	// site01 tries to take over three times; site02 outranks it and is
	// alive, so each attempt pings the dead super-peer and gives up.
	for i := 0; i < 3; i++ {
		if err := h.agents[1].RunTakeover("site03"); err == nil {
			t.Fatal("site01 took over although site02 outranks it")
		}
	}
	for _, i := range []int{0, 1} {
		if n := missesOf(h.agents[i], "site03"); n != 0 {
			t.Fatalf("site%02d: verification pings left %d misses of site03, want 0", i, n)
		}
	}
	if h.agents[0].View().Epoch != epoch {
		t.Fatal("a refused takeover changed the view")
	}

	// The liveness pass still needs its full threshold.
	if initiated, err := h.agents[0].DetectAndRecover(); err != nil || initiated {
		t.Fatalf("first liveness miss initiated recovery: %v %v", initiated, err)
	}
	if n := missesOf(h.agents[0], "site03"); n != 1 {
		t.Fatalf("site00 misses of site03 after one liveness pass = %d, want 1", n)
	}
}
