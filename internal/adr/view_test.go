package adr

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"glare/internal/activity"
	"glare/internal/xmlutil"
)

// oracleByType decodes every deployment and keeps those of typeName: the
// full-decode scan ByType replaced.
func oracleByType(r *Registry, typeName string) []*activity.Deployment {
	var out []*activity.Deployment
	for _, d := range r.All() {
		if d.Type == typeName {
			out = append(out, d)
		}
	}
	return out
}

var viewTypes = []string{"Ty0", "Ty1", "Ty2", "Ty3", "Nobody"}

func execDep(name, typeName string) *activity.Deployment {
	return &activity.Deployment{Name: name, Type: typeName, Kind: activity.KindExecutable,
		Site: "agrid1", Path: "/opt/glare/" + name}
}

// TestByTypeFollowsEveryWrite interleaves every kind of write the home
// takes — Create, Update, Replace (also of the type attribute),
// SetTermination, Destroy, SweepExpired, Restore and Adopt — with ByType,
// and checks every answer against a full decode after each step.
func TestByTypeFollowsEveryWrite(t *testing.T) {
	deps, _, v := fixture()
	rng := rand.New(rand.NewSource(51))
	removed := map[string]*xmlutil.Node{}
	ops := map[string]bool{}
	for i := 0; i < 1000; i++ {
		name := fmt.Sprintf("dep-%d", rng.Intn(8))
		typ := viewTypes[rng.Intn(4)]
		op := ""
		switch rng.Intn(10) {
		case 0, 1:
			if _, err := deps.Register(execDep(name, typ)); err == nil {
				op = "Create"
			}
		case 2:
			if deps.UpdateMetrics(name, activity.Metrics{Invocations: rng.Intn(9)}) == nil {
				op = "Replace"
			}
		case 3:
			if doc, ok := deps.GetDocument(name); ok {
				doc.SetAttr("type", typ)
				if deps.Home().Replace(name, doc) {
					op = "Replace type"
				}
			}
		case 4:
			if deps.Home().Update(name, func(doc *xmlutil.Node) { doc.SetAttr("type", typ) }) {
				op = "Update type"
			}
		case 5:
			if deps.SetTermination(name, v.Now().Add(time.Minute)) == nil {
				op = "SetTermination"
				if rng.Intn(2) == 0 {
					v.Advance(2 * time.Minute)
					deps.SweepExpired()
					op = "SweepExpired"
				}
			}
		case 6:
			if doc, ok := deps.GetDocument(name); ok && deps.Remove(name) {
				removed[name] = doc
				op = "Destroy"
			}
		case 7:
			for _, gone := range deps.ExpireByType(typ) {
				removed[gone] = nil
				op = "ExpireByType"
			}
		case 8, 9:
			doc := removed[name]
			if doc == nil {
				break
			}
			delete(removed, name)
			if rng.Intn(2) == 0 {
				deps.Home().Restore(name, doc, v.Now(), time.Time{})
				op = "Restore"
			} else {
				deps.Home().Adopt(name, doc, v.Now(), time.Time{})
				op = "Adopt"
			}
		}
		if op == "" {
			continue
		}
		ops[op] = true
		for _, ty := range viewTypes {
			if got, want := deps.ByType(ty), oracleByType(deps, ty); !reflect.DeepEqual(got, want) {
				t.Fatalf("step %d (%s %s): ByType(%s) = %v, full decode says %v", i, op, name, ty, got, want)
			}
		}
	}
	for _, op := range []string{"Create", "Replace", "Replace type", "Update type", "SetTermination", "SweepExpired", "Destroy", "ExpireByType", "Restore", "Adopt"} {
		if !ops[op] {
			t.Errorf("the sequence never ran %s", op)
		}
	}
}

// TestViewsUnderConcurrentWrites runs ByType and ConcreteOf against
// writers that create, re-type, update and remove deployments; under
// -race it checks the views' publication. Every answer must hold only
// deployments of the type asked for, and once the writers stop, the views
// must match a full decode.
func TestViewsUnderConcurrentWrites(t *testing.T) {
	deps, types, _ := fixture()
	var ready, writers, readers sync.WaitGroup
	done := make(chan struct{})
	ready.Add(2)
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for pass := 0; ; pass++ {
				if pass == 1 {
					ready.Done()
				}
				select {
				case <-done:
					return
				default:
				}
				for _, ty := range viewTypes {
					for _, d := range deps.ByType(ty) {
						if d.Type != ty {
							t.Errorf("ByType(%s) returned %s of type %s", ty, d.Name, d.Type)
						}
					}
					if _, err := types.ConcreteOf(ty); err != nil {
						t.Errorf("ConcreteOf(%s): %v", ty, err)
					}
				}
			}
		}()
	}
	ready.Wait()
	for w := 0; w < 2; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 2000; i++ {
				name := fmt.Sprintf("w%d-dep-%d", w, rng.Intn(10))
				typ := viewTypes[rng.Intn(4)]
				switch rng.Intn(4) {
				case 0:
					deps.Register(execDep(name, typ))
				case 1:
					deps.UpdateMetrics(name, activity.Metrics{Invocations: i})
				case 2:
					deps.Home().Update(name, func(doc *xmlutil.Node) { doc.SetAttr("type", typ) })
				case 3:
					deps.Remove(name)
				}
			}
		}(w)
	}
	writers.Wait()
	close(done)
	readers.Wait()
	for _, ty := range viewTypes {
		if got, want := deps.ByType(ty), oracleByType(deps, ty); !reflect.DeepEqual(got, want) {
			t.Fatalf("after the writers: ByType(%s) = %v, full decode says %v", ty, got, want)
		}
	}
}

// TestByTypeAllocsIndependentOfRegistrySize pins that a ByType with no
// write since the last one costs the same at 100 and at 2 000
// deployments.
func TestByTypeAllocsIndependentOfRegistrySize(t *testing.T) {
	allocs := func(n int) float64 {
		deps, _, _ := fixture()
		for i := 0; i < n; i++ {
			if _, err := deps.Register(execDep(fmt.Sprintf("dep-%05d", i), fmt.Sprintf("Type%05d", i/2))); err != nil {
				t.Fatal(err)
			}
		}
		return testing.AllocsPerRun(50, func() {
			if got := deps.ByType("Type00007"); len(got) != 2 {
				t.Fatalf("ByType found %d deployments, want 2", len(got))
			}
		})
	}
	small, large := allocs(100), allocs(2000)
	if small != large {
		t.Fatalf("ByType allocations grow with the registry: %v at 100 deployments, %v at 2000", small, large)
	}
	const budget = 4 // two decodes and the growth of the result slice
	if large > budget {
		t.Fatalf("ByType allocates %v per call, budget %d", large, budget)
	}
	t.Logf("ByType: %v allocations per call at 100 and at 2000 deployments", large)
}
