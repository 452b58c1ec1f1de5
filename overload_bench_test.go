// Overload benchmark: goodput and per-class p99 at 1x, 5x and 20x the
// interactive admission capacity — the numbers CI publishes as
// BENCH_overload.json so a goodput regression (or a brownout-order
// break) shows up as a metric shift, not just a test flake.
package glare_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"glare/internal/experiments"
	"glare/internal/rdm"
	"glare/internal/simclock"
	"glare/internal/telemetry"
	"glare/internal/transport"
	"glare/internal/vo"
	"glare/internal/xmlutil"
)

// benchAdmission pins every class's limit (AIMD off) so the multiplier
// arithmetic is stable across runs: interactive capacity is exactly 4
// concurrent slots.
func benchAdmission() *transport.AdmissionConfig {
	return &transport.AdmissionConfig{
		Control:     transport.ClassLimits{Limit: 8, MinLimit: 8, MaxLimit: 8, QueueDepth: 16},
		Interactive: transport.ClassLimits{Limit: 4, MinLimit: 4, MaxLimit: 4, QueueDepth: 10},
		Bulk:        transport.ClassLimits{Limit: 1, MinLimit: 1, MaxLimit: 1, QueueDepth: 2},
	}
}

// BenchmarkOverloadFlood floods one site at a multiple of its interactive
// capacity and reports goodput plus per-class p99 latency. At x1 nothing
// sheds; at x5 and x20 the brownout ladder engages and the interesting
// number is how flat interactive goodput stays.
func BenchmarkOverloadFlood(b *testing.B) {
	const service = 20 * time.Millisecond
	for _, mult := range []int{1, 5, 20} {
		b.Run(fmt.Sprintf("x%d", mult), func(b *testing.B) {
			v, err := vo.Build(vo.Options{
				Sites:     1,
				Clock:     simclock.Real,
				Admission: benchAdmission(),
			})
			if err != nil {
				b.Fatal(err)
			}
			defer v.Close()
			node := v.Nodes[0]
			node.Server.RegisterCtx("FloodSvc", "Work",
				func(ctx context.Context, _ *telemetry.Span, _ *xmlutil.Node) (*xmlutil.Node, error) {
					time.Sleep(service)
					return xmlutil.NewNode("Done"), nil
				})
			workURL := node.Info.BaseURL + transport.ServicePrefix + "FloodSvc"
			peerURL := node.Info.PeerURL()
			rdmURL := node.Info.ServiceURL(rdm.ServiceName)

			cli := transport.NewClient(nil)
			defer cli.CloseIdle()
			callOp := func(url, op string) func(ctx context.Context) error {
				return func(ctx context.Context) error {
					_, err := cli.CallCtx(ctx, nil, url, op, nil)
					if transport.IsOverloadReject(err) {
						time.Sleep(50*time.Millisecond + time.Duration(rand.Int63n(int64(50*time.Millisecond))))
					}
					return err
				}
			}

			var workGoodput, probeGoodput, scanGoodput, workP99, probeP99, shedRate float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res := experiments.RunFlood(context.Background(), experiments.FloodConfig{
					Duration: 300 * time.Millisecond,
					Ops: []experiments.FloodOp{
						{Name: "work", Class: "interactive", Clients: 4 * mult,
							Budget: 150 * time.Millisecond, Ramp: 50 * time.Millisecond,
							Do: callOp(workURL, "Work")},
						{Name: "probe", Class: "control", Clients: 2,
							Budget: 200 * time.Millisecond, Do: callOp(peerURL, "ViewStatus")},
						{Name: "scan", Class: "bulk", Clients: 2,
							Budget: 100 * time.Millisecond, Do: callOp(rdmURL, "RegistryDigest")},
					},
				})
				work, probe := res.Op("work"), res.Op("probe")
				workGoodput += work.Goodput
				probeGoodput += probe.Goodput
				scanGoodput += res.Op("scan").Goodput
				workP99 += float64(work.P99.Microseconds()) / 1e3
				probeP99 += float64(probe.P99.Microseconds()) / 1e3
				if work.Issued > 0 {
					shedRate += float64(work.Shed) / float64(work.Issued)
				}
			}
			b.StopTimer()
			n := float64(b.N)
			b.ReportMetric(workGoodput/n, "work-goodput/s")
			b.ReportMetric(probeGoodput/n, "probe-goodput/s")
			b.ReportMetric(scanGoodput/n, "scan-goodput/s")
			b.ReportMetric(workP99/n, "work-p99-ms")
			b.ReportMetric(probeP99/n, "probe-p99-ms")
			b.ReportMetric(100*shedRate/n, "work-shed-%")
		})
	}
}
