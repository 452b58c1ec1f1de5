// Replication benchmarks: the quorum-write latency tax relative to an
// unreplicated registration, and the time from a permanent site loss to
// a completed failover — the numbers CI publishes as
// BENCH_replication.json so a replication slowdown (or a failover-time
// regression) shows up as a metric shift, not just a test flake.
package glare

import (
	"fmt"
	"testing"
	"time"
)

// benchReplicaGrid builds a 3-site grid (one peer group) with the given
// replication factor and returns it elected.
func benchReplicaGrid(b *testing.B, k int) *Grid {
	b.Helper()
	g, err := NewGrid(GridOptions{
		Sites:           3,
		GroupSize:       3,
		Replicas:        k,
		DisableCache:    true,
		BreakerCooldown: 50 * time.Millisecond,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(g.Close)
	if err := g.Elect(); err != nil {
		b.Fatal(err)
	}
	return g
}

// BenchmarkReplicationQuorumWrite registers activity types at replication
// factors 1 (no replication — the baseline), 2 and 3. The delta against
// single is the price of the durability promise: one (K=2) or one-of-two
// (K=3) synchronous replica acknowledgements per registration.
func BenchmarkReplicationQuorumWrite(b *testing.B) {
	for _, bench := range []struct {
		name string
		k    int
	}{{"single", 0}, {"K2", 2}, {"K3", 3}} {
		b.Run(bench.name, func(b *testing.B) {
			g := benchReplicaGrid(b, bench.k)
			provider := g.Client(1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				t := &Type{Name: fmt.Sprintf("BenchType%s%06d", bench.name, i), Domain: "Bench"}
				if err := provider.RegisterType(t); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkReplicationFailover measures permanent-loss failover: kill a
// registration owner and clock how long until a surviving site's failure
// detector has promoted a replica and the owner's registrations resolve
// again. Each iteration builds a fresh grid; the reported failover-ms is
// the wall time from KillSite to the first successful resolution.
func BenchmarkReplicationFailover(b *testing.B) {
	for _, k := range []int{2, 3} {
		b.Run(fmt.Sprintf("K%d", k), func(b *testing.B) {
			var totalMS float64
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				g := benchReplicaGrid(b, k)
				// The owner must be killable (not the community-index
				// holder) and must not be the group's super-peer, which
				// runs the failure detector.
				owner := 1
				if g.IsSuperPeer(owner) {
					owner = 2
				}
				var sp int
				for j := 0; j < g.Sites(); j++ {
					if g.IsSuperPeer(j) {
						sp = j
					}
				}
				name := fmt.Sprintf("FailoverType%06d", i)
				if err := g.Client(owner).RegisterType(&Type{Name: name, Domain: "Bench"}); err != nil {
					b.Fatal(err)
				}
				for j := 0; j < g.Sites(); j++ {
					g.vo.Nodes[j].RDM.RepairReplicas()
				}
				b.StartTimer()
				start := time.Now()
				if err := g.KillSite(owner); err != nil {
					b.Fatal(err)
				}
				deadline := time.Now().Add(15 * time.Second)
				for {
					g.vo.Nodes[sp].RDM.CheckLiveness()
					if types, err := g.Client(sp).ResolveTypes(name); err == nil && len(types) > 0 {
						break
					}
					if time.Now().After(deadline) {
						b.Fatalf("failover did not complete within 15s at K=%d", k)
					}
				}
				elapsed := time.Since(start)
				b.StopTimer()
				totalMS += float64(elapsed.Microseconds()) / 1e3
				g.Close()
			}
			b.ReportMetric(totalMS/float64(b.N), "failover-ms")
		})
	}
}
