// Clock-skew benchmarks: how long a partitioned-then-healed grid takes to
// converge back to full cross-site resolution at increasing amounts of
// injected clock skew. CI publishes the numbers as BENCH_skew.json so a
// skew-sensitivity regression (convergence slowing down) shows up as a
// metric shift.
package glare

import (
	"fmt"
	"testing"
	"time"
)

// BenchmarkSkewConvergence splits a 4-site grid, registers on both sides,
// heals, and clocks the time until both registrations resolve from every
// site — with every site's clock displaced by a seeded schedule drawn
// from ±maxSkew. The relative encoding of deadlines and the HLC ordering
// stamps mean convergence time should be flat across the skew axis. Each
// polling round runs every site's anti-entropy pass, which moves blob
// locations and re-registers local types in the index, then resolves both
// names from every site.
func BenchmarkSkewConvergence(b *testing.B) {
	for _, bench := range []struct {
		name    string
		maxSkew time.Duration
	}{{"true-clocks", 0}, {"skew-1m", time.Minute}, {"skew-10m", 10 * time.Minute}} {
		b.Run(bench.name, func(b *testing.B) {
			var totalMS float64
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				g, err := NewGrid(GridOptions{
					Sites:           4,
					GroupSize:       4,
					ChaosSeed:       int64(100 + i),
					CallTimeout:     300 * time.Millisecond,
					BreakerCooldown: 100 * time.Millisecond,
				})
				if err != nil {
					b.Fatal(err)
				}
				if err := g.Elect(); err != nil {
					b.Fatal(err)
				}
				if bench.maxSkew > 0 {
					g.SkewGrid(int64(2008+i), bench.maxSkew)
				}
				var sideA, sideB []int
				for j := 0; j < g.Sites(); j++ {
					if j%2 == 0 {
						sideA = append(sideA, j)
					} else {
						sideB = append(sideB, j)
					}
				}
				if err := g.PartitionSites(sideA, sideB); err != nil {
					b.Fatal(err)
				}
				left := fmt.Sprintf("SkewBenchLeft%06d", i)
				right := fmt.Sprintf("SkewBenchRight%06d", i)
				if err := g.Client(sideA[1]).RegisterType(&Type{Name: left, Domain: "Bench"}); err != nil {
					b.Fatal(err)
				}
				if err := g.Client(sideB[1]).RegisterType(&Type{Name: right, Domain: "Bench"}); err != nil {
					b.Fatal(err)
				}
				if err := g.HealPartition(); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				start := time.Now()
				deadline := start.Add(20 * time.Second)
				for {
					for j := 0; j < g.Sites(); j++ {
						g.vo.Nodes[j].RDM.SyncRegistries()
					}
					if resolvesEverywhere(g, left) && resolvesEverywhere(g, right) {
						break
					}
					if time.Now().After(deadline) {
						b.Fatalf("heal did not converge within 20s at %s", bench.name)
					}
				}
				elapsed := time.Since(start)
				b.StopTimer()
				totalMS += float64(elapsed.Microseconds()) / 1e3
				g.Close()
			}
			b.ReportMetric(totalMS/float64(b.N), "converge-ms")
		})
	}
}

// resolvesEverywhere reports whether every site resolves typeName.
func resolvesEverywhere(g *Grid, typeName string) bool {
	for j := 0; j < g.Sites(); j++ {
		types, err := g.Client(j).ResolveTypes(typeName)
		if err != nil || len(types) == 0 {
			return false
		}
	}
	return true
}
