package glare

import (
	"context"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"glare/internal/experiments"
	"glare/internal/rdm"
	"glare/internal/telemetry"
	"glare/internal/transport"
	"glare/internal/xmlutil"
)

// floodAdmission pins every class's limit (AIMD off) so the flood's
// capacity arithmetic is deterministic: interactive saturates at 4
// concurrent slots, bulk at 1 with almost no queue, control has ample
// headroom.
func floodAdmission() *AdmissionConfig {
	return &AdmissionConfig{
		Control:     ClassLimits{Limit: 8, MinLimit: 8, MaxLimit: 8, QueueDepth: 16},
		Interactive: ClassLimits{Limit: 4, MinLimit: 4, MaxLimit: 4, QueueDepth: 10},
		Bulk:        ClassLimits{Limit: 1, MinLimit: 1, MaxLimit: 1, QueueDepth: 2},
	}
}

// TestFloodBrownoutHoldsGoodput is the overload acceptance path (the
// paper's Fig. 10/11 shape, with the admission layer standing in for the
// index that used to collapse): a client horde at 20x the interactive
// capacity hammers one site while control probes and bulk scans run
// alongside. The site must brown out gracefully — bulk sheds, control
// and interactive hold — with total interactive goodput no worse than
// 80% of the pre-saturation plateau, and not a single request may begin
// executing after its propagated deadline expired.
func TestFloodBrownoutHoldsGoodput(t *testing.T) {
	g := newGrid(t, GridOptions{Sites: 2, RealTime: true, Admission: floodAdmission()})
	if err := g.Elect(); err != nil {
		t.Fatal(err)
	}

	// The interactive workload is a dedicated operation whose handler
	// checks the zero-post-deadline-execution property on entry: the
	// transport's gates must make the violation count impossible to move.
	target := g.vo.Nodes[0]
	var violations atomic.Int64
	target.Server.RegisterCtx("FloodSvc", "Work",
		func(ctx context.Context, _ *telemetry.Span, _ *xmlutil.Node) (*xmlutil.Node, error) {
			if dl, ok := ctx.Deadline(); ok && time.Now().After(dl) {
				violations.Add(1)
			}
			// Service time large enough to dominate per-request transport
			// and scheduling overhead (CI runners can be single-core), so
			// goodput is governed by the 4 admission slots.
			time.Sleep(80 * time.Millisecond)
			return xmlutil.NewNode("Done"), nil
		})
	workURL := target.Info.BaseURL + transport.ServicePrefix + "FloodSvc"
	peerURL := target.Info.PeerURL()
	rdmURL := target.Info.ServiceURL(rdm.ServiceName)

	// No retry policy: every shed, brownout and expiry surfaces to the
	// tally instead of being papered over.
	cli := transport.NewClient(nil)
	t.Cleanup(cli.CloseIdle)
	callOp := func(url, op string) func(ctx context.Context) error {
		return func(ctx context.Context) error {
			_, err := cli.CallCtx(ctx, nil, url, op, nil)
			if transport.IsOverloadReject(err) {
				// Jittered polite-client backoff keeps a shed fleet from
				// busy-spinning (and from melting the site with refusal
				// traffic) without synchronizing into retry bursts that
				// would leave the admission queue draining dry between them.
				time.Sleep(100*time.Millisecond + time.Duration(rand.Int63n(int64(150*time.Millisecond))))
			}
			return err
		}
	}
	interactive := func(clients int, ramp time.Duration) experiments.FloodOp {
		return experiments.FloodOp{
			Name: "work", Class: "interactive", Clients: clients, Ramp: ramp,
			Budget: 250 * time.Millisecond, Do: callOp(workURL, "Work"),
		}
	}

	// Pre-saturation plateau: a fleet exactly the size of the interactive
	// limit — slots full, queue empty, nothing shed.
	plateau := experiments.RunFlood(context.Background(), experiments.FloodConfig{
		Duration: 600 * time.Millisecond,
		Ops:      []experiments.FloodOp{interactive(4, 0)},
	})
	base := plateau.Op("work")
	if base.OK == 0 || base.Shed != 0 {
		t.Fatalf("plateau not clean: %+v", base)
	}

	// Flood: 20x interactive capacity, with live control and bulk mixes.
	flood := experiments.RunFlood(context.Background(), experiments.FloodConfig{
		Duration: 1200 * time.Millisecond,
		Ops: []experiments.FloodOp{
			// The horde arrives over 200ms, the way real client crowds do,
			// rather than as one phase-locked burst.
			interactive(80, 200*time.Millisecond),
			{Name: "probe", Class: "control", Clients: 4,
				Budget: 300 * time.Millisecond, Do: callOp(peerURL, "ViewStatus")},
			{Name: "scan", Class: "bulk", Clients: 8,
				Budget: 150 * time.Millisecond, Do: callOp(rdmURL, "RegistryDigest")},
		},
	})

	if n := violations.Load(); n != 0 {
		t.Errorf("%d request(s) began executing after their propagated deadline expired", n)
	}
	work := flood.Op("work")
	if work.Goodput < 0.8*base.Goodput {
		t.Errorf("interactive goodput %.0f/s under 20x flood, want >= 80%% of plateau %.0f/s",
			work.Goodput, base.Goodput)
	}
	probe := flood.Op("probe")
	if probe.OK == 0 {
		t.Error("control plane starved during flood")
	}
	if probe.Shed != 0 {
		t.Errorf("control plane shed %d request(s); the top class must never brown out", probe.Shed)
	}
	scan := flood.Op("scan")
	if scan.Shed == 0 {
		t.Errorf("bulk never shed under 20x flood: %+v", scan)
	}

	// The controller's own accounting agrees with the client-side tally.
	st := g.OverloadStatus(0)
	if len(st) != 3 {
		t.Fatalf("OverloadStatus = %+v, want 3 classes", st)
	}
	if st[2].Sheds == 0 {
		t.Errorf("admission controller recorded no bulk sheds: %+v", st[2])
	}
	if st[0].Sheds != 0 {
		t.Errorf("admission controller shed control requests: %+v", st[0])
	}
	t.Logf("plateau %.0f/s; flood: work %.0f/s (shed %d, expired %d, p99 %v), probe p99 %v, scan shed %d",
		base.Goodput, work.Goodput, work.Shed, work.Expired, work.P99, probe.P99, scan.Shed)
}

// TestFloodDisabledAdmissionStillMeasures sanity-checks the AdmissionOff
// baseline used by overload experiments: with the controller off, the
// same flood runs unprotected (no sheds, no LoadStatus) — the
// configuration the paper's collapsing index corresponds to.
func TestFloodDisabledAdmissionStillMeasures(t *testing.T) {
	g := newGrid(t, GridOptions{Sites: 1, RealTime: true, AdmissionOff: true})
	if st := g.OverloadStatus(0); st != nil {
		t.Fatalf("OverloadStatus with AdmissionOff = %+v, want nil", st)
	}
	target := g.vo.Nodes[0]
	cli := transport.NewClient(nil)
	t.Cleanup(cli.CloseIdle)
	res := experiments.RunFlood(context.Background(), experiments.FloodConfig{
		Duration: 100 * time.Millisecond,
		Ops: []experiments.FloodOp{{
			Name: "probe", Class: "control", Clients: 2,
			Budget: 200 * time.Millisecond,
			Do: func(ctx context.Context) error {
				_, err := cli.CallCtx(ctx, nil, target.Info.PeerURL(), "ViewStatus", nil)
				return err
			},
		}},
	})
	probe := res.Op("probe")
	if probe.OK == 0 || probe.Shed != 0 {
		t.Fatalf("unprotected flood stats = %+v, want successes and zero sheds", probe)
	}
}
