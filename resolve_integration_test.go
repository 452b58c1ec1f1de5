package glare

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"glare/internal/simclock"
	"glare/internal/telemetry"
	"glare/internal/transport"
)

// ladderVO is a seeded placement on two groups of three sites: abstract
// types with their concrete subtypes, standalone concrete types, and
// deployments, some on sites that know their type only as the placeholder
// registering the deployment created.
type ladderVO struct {
	g     *Grid
	group []string          // site → the super-peer of its group
	base  map[string]string // concrete type → abstract base, "" for none
	full  []map[string]bool // site → types registered with their hierarchy
	deps  map[string][]int  // concrete type → the sites of its deployments
	known []map[string]bool // site → concrete types it holds, placeholders included
}

var (
	ladderAbstract = []string{"Abs0", "Abs1"}
	ladderConcrete = []string{"T0", "T1", "T2", "T3", "T4"}
	ladderNames    = append(append(append([]string{}, ladderAbstract...), ladderConcrete...), "Ghost")
)

func ladderDep(typ string, site int) string { return fmt.Sprintf("dep-%s-%d", typ, site) }

func newLadderVO(t *testing.T, seed int64) *ladderVO {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	g := newGrid(t, GridOptions{Sites: 6, GroupSize: 3, ChaosSeed: seed})
	if err := g.Elect(); err != nil {
		t.Fatal(err)
	}
	v := &ladderVO{g: g, base: map[string]string{}, deps: map[string][]int{}}
	groups := map[string]int{}
	for i := 0; i < g.Sites(); i++ {
		sp := g.SuperPeerOf(i)
		v.group = append(v.group, sp)
		groups[sp]++
		v.full = append(v.full, map[string]bool{})
		v.known = append(v.known, map[string]bool{})
		// One attempt per call and no breaker: an unreachable site fails
		// each call at once, so the test runs quickly and every call to
		// it is counted by the rule, not skipped by an open breaker.
		n := g.vo.Nodes[i]
		n.Client.SetRetryPolicy(transport.RetryPolicy{MaxAttempts: 1})
		n.Client.SetBreaker(transport.BreakerConfig{FailureThreshold: 1 << 30})
	}
	if len(groups) != 2 {
		t.Fatalf("groups %v, want two of three sites", groups)
	}
	for _, c := range ladderConcrete {
		v.base[c] = []string{"", "Abs0", "Abs1"}[r.Intn(3)]
	}
	// Each abstract type is registered with all its subtypes, and each
	// standalone type alone, on a random set of sites: every site that
	// resolves a name resolves it to the same types.
	for _, root := range append(append([]string{}, ladderAbstract...), ladderConcrete...) {
		var family []*Type
		if slices.Contains(ladderAbstract, root) {
			family = append(family, &Type{Name: root, Abstract: true})
			for _, c := range ladderConcrete {
				if v.base[c] == root {
					family = append(family, &Type{Name: c, Base: []string{root}})
				}
			}
		} else if v.base[root] == "" {
			family = append(family, &Type{Name: root})
		}
		for s := 0; s < g.Sites() && len(family) > 0; s++ {
			if r.Float64() >= 0.3 {
				continue
			}
			if err := g.Client(s).RegisterTypes(family...); err != nil {
				t.Fatal(err)
			}
			for _, ty := range family {
				v.full[s][ty.Name] = true
				if !ty.Abstract {
					v.known[s][ty.Name] = true
				}
			}
		}
	}
	for _, c := range ladderConcrete {
		for _, s := range r.Perm(g.Sites())[:r.Intn(4)] {
			registerDeployment(t, g, s, ladderDep(c, s), c)
			v.deps[c] = append(v.deps[c], s)
			v.known[s][c] = true
		}
	}
	return v
}

// resolves returns the concrete types site s resolves name to.
func (v *ladderVO) resolves(s int, name string) []string {
	var out []string
	switch {
	case slices.Contains(ladderAbstract, name):
		if v.full[s][name] {
			for _, c := range ladderConcrete {
				if v.base[c] == name {
					out = append(out, c)
				}
			}
		}
	case v.known[s][name]:
		out = []string{name}
	}
	return out
}

// ladderWant is what the rule predicts for one resolution.
type ladderWant struct {
	types  []string
	source string          // the rung that resolved the name, "" for none
	deps   map[string]bool // deployment name → served stale (Degraded)
	// narrowed: the group's deployments left some of the VO's out;
	// placeholder: an abstract name's answer holds a deployment whose
	// site knows its type only as a placeholder.
	narrowed, placeholder bool
}

// expect applies the rule to a resolution of name by caller while site
// down (-1 for none) cannot be reached: the first rung that resolves the
// name fixes the types, and each type takes its group's deployments on
// reachable sites, else the VO's.
func (v *ladderVO) expect(caller, down int, name string) ladderWant {
	up := func(s int) bool { return s != down }
	inGroup := func(s int) bool { return v.group[s] == v.group[caller] }
	w := ladderWant{deps: map[string]bool{}}
	rungs := []struct {
		source string
		at     func(s int) bool
	}{
		{"local", func(s int) bool { return s == caller }},
		{"peer", func(s int) bool { return s != caller && inGroup(s) }},
		{"superpeer", func(s int) bool { return !inGroup(s) }},
	}
	for _, rung := range rungs {
		for s := 0; s < v.g.Sites() && w.source == ""; s++ {
			if types := v.resolves(s, name); rung.at(s) && up(s) && len(types) > 0 {
				w.types, w.source = types, rung.source
			}
		}
	}
	for _, c := range w.types {
		var group, vo []string
		for _, s := range v.deps[c] {
			if !up(s) {
				continue
			}
			vo = append(vo, ladderDep(c, s))
			if inGroup(s) {
				group = append(group, ladderDep(c, s))
			}
		}
		if len(group) == 0 {
			group = vo
		}
		w.narrowed = w.narrowed || len(group) < len(vo)
		for _, s := range v.deps[c] {
			if slices.Contains(group, ladderDep(c, s)) && !v.full[s][c] && c != name {
				w.placeholder = true
			}
		}
		for _, d := range group {
			w.deps[d] = false
		}
	}
	return w
}

// counters reads site i's resolution counters: degraded, and resolve_total
// by source.
func (v *ladderVO) counters(i int) map[string]float64 {
	tel := v.g.Telemetry(i)
	out := map[string]float64{"degraded": float64(tel.Counter("glare_rdm_resolve_degraded_total").Value())}
	for _, src := range []string{"local", "cache", "peer", "superpeer", "stale"} {
		out[src] = float64(tel.Counter("glare_rdm_resolve_total", telemetry.L("source", src)).Value())
	}
	return out
}

// check resolves name from caller and compares the answer and the
// counters' movement with want and the expected degraded count.
func (v *ladderVO) check(t *testing.T, what string, caller int, name string, want ladderWant, degraded, stale float64) {
	t.Helper()
	before := v.counters(caller)
	deps, err := v.g.Client(caller).DiscoverNoDeploy(name)
	got := map[string]bool{}
	for _, d := range deps {
		got[d.Name] = d.Degraded
	}
	if fmt.Sprint(got) != fmt.Sprint(want.deps) || (err != nil) != (len(want.deps) == 0) {
		t.Errorf("%s: site %d resolving %s (types %v) got %v, err %v; want %v", what, caller, name, want.types, got, err, want.deps)
	}
	after := v.counters(caller)
	moved := map[string]float64{}
	for k := range after {
		if d := after[k] - before[k]; d != 0 {
			moved[k] = d
		}
	}
	expect := map[string]float64{}
	if want.source != "" {
		expect[want.source]++
	}
	if degraded > 0 {
		expect["degraded"] = degraded
	}
	if stale > 0 {
		expect["stale"] += stale
	}
	if fmt.Sprint(moved) != fmt.Sprint(expect) {
		t.Errorf("%s: site %d resolving %s moved counters %v, want %v", what, caller, name, moved, expect)
	}
}

// TestResolveLadderRule checks seeded placements against the resolution
// rule, computed from the placement alone:
//   - the concrete types come from the first rung that resolves the name:
//     the caller, a reachable peer of its group, or a reachable site of the
//     other group, as glare_rdm_resolve_total{source} records;
//   - each type takes the deployments its group's reachable sites hold and
//     only when there are none the VO's;
//   - an unreachable site of the caller's group makes every type of the
//     resolution degraded (one count for a name nobody resolved), and a type
//     left with no deployment is served from the stale cache, marked
//     Degraded; a site the caller does not call itself leaves no trace.
func TestResolveLadderRule(t *testing.T) {
	seen := map[string]int{}
	for seed := int64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			v := newLadderVO(t, seed)
			r := rand.New(rand.NewSource(seed))
			down := r.Intn(v.g.Sites())
			for v.g.IsSuperPeer(down) {
				down = r.Intn(v.g.Sites())
			}
			clock := v.g.vo.Clock.(*simclock.Virtual)
			var summary []string
			for caller := 0; caller < v.g.Sites(); caller++ {
				if caller == down {
					continue
				}
				sameGroup := v.group[caller] == v.group[down]
				for _, name := range ladderNames {
					// Cold: every cache entry is past its revival window.
					clock.Advance(time.Hour)
					if err := v.g.DropSite(down); err != nil {
						t.Fatal(err)
					}
					want := v.expect(caller, down, name)
					degraded := 0.0
					if sameGroup {
						degraded = float64(max(len(want.types), 1))
					}
					v.check(t, "cold", caller, name, want, degraded, 0)
					summary = append(summary, fmt.Sprintf("%s@%d:%s/%d", name, caller, want.source, len(want.deps)))
					seen[want.source]++
					if want.narrowed {
						seen["narrowed"]++
					}
					if want.placeholder {
						seen["placeholder"]++
					}
					if !sameGroup || len(want.types) == 0 {
						continue
					}
					// Warm the cache with every site up, let it expire
					// within the revival window, then cut the site off: a
					// type whose only deployments were there is served
					// stale.
					clock.Advance(time.Hour)
					if err := v.g.RestoreSite(down); err != nil {
						t.Fatal(err)
					}
					v.check(t, "warm", caller, name, v.expect(caller, -1, name), 0, 0)
					clock.Advance(10 * time.Minute)
					if err := v.g.DropSite(down); err != nil {
						t.Fatal(err)
					}
					// A type with no reachable deployment had them all on
					// the cut-off site.
					stale := 0.0
					for _, c := range want.types {
						fresh := slices.ContainsFunc(v.deps[c], func(s int) bool {
							_, ok := want.deps[ladderDep(c, s)]
							return ok
						})
						if fresh || len(v.deps[c]) == 0 {
							continue
						}
						for _, s := range v.deps[c] {
							want.deps[ladderDep(c, s)] = true
						}
						stale++
					}
					v.check(t, "stale", caller, name, want, float64(len(want.types)), stale)
					if stale > 0 {
						seen["stale"]++
					}
				}
			}
			sort.Strings(summary)
			t.Logf("down site %d; name@caller:rung/deployments %s", down, strings.Join(summary, " "))
		})
	}
	// The seeds must exercise every part of the rule.
	for _, c := range []string{"local", "peer", "superpeer", "", "narrowed", "placeholder", "stale"} {
		if seen[c] == 0 {
			t.Errorf("no seed exercised %q: %v", c, seen)
		}
	}
	t.Logf("cases: %v", seen)
}
