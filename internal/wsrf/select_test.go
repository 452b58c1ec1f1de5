package wsrf

import (
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"sync"
	"testing"
	"time"

	"glare/internal/simclock"
	"glare/internal/xmlutil"
	"glare/internal/xpath"
)

// After interleaved creation, destruction, adoption and restore, All lists
// exactly the live resources in key order and Keys agrees with it, and a
// slice All returned earlier is never changed by later churn.
func TestAllOrderAfterInterleavedChurn(t *testing.T) {
	h := newHome(nil)
	rng := rand.New(rand.NewSource(7))
	live := map[string]bool{}
	for i := 0; i < 400; i++ {
		key := fmt.Sprintf("k%02d", rng.Intn(40))
		before := h.All()
		snapshot := slices.Clone(before)
		switch rng.Intn(4) {
		case 0:
			if _, err := h.Create(key, nil); err == nil {
				live[key] = true
			}
		case 1:
			h.Destroy(key)
			delete(live, key)
		case 2:
			h.Adopt(key, xmlutil.NewNode("Properties"), time.Unix(int64(i), 0), time.Time{})
			live[key] = true
		case 3:
			h.Restore(key, xmlutil.NewNode("Properties"), time.Unix(int64(i), 0), time.Time{})
			live[key] = true
		}
		want := make([]string, 0, len(live))
		for k := range live {
			want = append(want, k)
		}
		slices.Sort(want)
		var got []string
		for _, r := range h.All() {
			got = append(got, r.Key())
			if h.Find(r.Key()) != r {
				t.Fatalf("step %d: All lists a resource Find does not return for %s", i, r.Key())
			}
		}
		if !slices.Equal(got, want) {
			t.Fatalf("step %d: All order %v, want %v", i, got, want)
		}
		if keys := h.Keys(); !slices.Equal(keys, want) {
			t.Fatalf("step %d: Keys %v, want %v", i, keys, want)
		}
		if !slices.Equal(before, snapshot) {
			t.Fatalf("step %d: a slice All returned earlier was modified", i)
		}
	}
}

// checkDoc reports whether d is a whole document as the writers of
// TestSelectConcurrentWithWriters leave it: an A and a B child carrying
// the same value, which every write sets together.
func checkDoc(d *xmlutil.Node) error {
	if d.Name != "Doc" || len(d.Children) != 2 || d.Children[0].Name != "A" || d.Children[1].Name != "B" {
		return fmt.Errorf("malformed document %s", d)
	}
	if d.Children[0].Text != d.Children[1].Text {
		return fmt.Errorf("torn document %s", d)
	}
	return nil
}

// checkEntry reports whether e is a whole rendered entry: its member EPR
// and a whole document.
func checkEntry(e *xmlutil.Node) error {
	if e.Name != "Entry" || len(e.Children) != 2 || e.Children[0].Name != "MemberEPR" {
		return fmt.Errorf("malformed entry %s", e)
	}
	return checkDoc(e.Children[1])
}

// Select runs against every kind of writer on overlapping keys. It must
// neither deadlock with them (the run ends within the timeout) nor return
// a document torn by a concurrent write, whether it returns documents,
// entries or the whole aggregate.
func TestSelectConcurrentWithWriters(t *testing.T) {
	h := newHome(simclock.Real)
	const keys = 8
	doc := func(v int) *xmlutil.Node {
		d := xmlutil.NewNode("Doc")
		d.Elem("A", strconv.Itoa(v))
		d.Elem("B", strconv.Itoa(v))
		return d
	}
	for k := range keys {
		h.Create(fmt.Sprintf("k%d", k), doc(0))
	}
	queries := []struct {
		expr  *xpath.Expr
		check func(*xmlutil.Node) error
	}{
		{xpath.MustCompile(`//Doc[A]`), checkDoc},
		{xpath.MustCompile(`//Doc/..`), checkEntry},
		{xpath.MustCompile(`/ServiceGroup`), func(root *xmlutil.Node) error {
			for _, e := range root.Children {
				if err := checkEntry(e); err != nil {
					return err
				}
			}
			return nil
		}},
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 1; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				key := fmt.Sprintf("k%d", rng.Intn(keys))
				switch rng.Intn(6) {
				case 0:
					h.Create(key, doc(i))
				case 1:
					h.Update(key, func(d *xmlutil.Node) {
						d.Children[0].Text = strconv.Itoa(i)
						d.Children[1].Text = strconv.Itoa(i)
					})
				case 2:
					h.Replace(key, doc(i))
				case 3:
					h.SetTermination(key, time.Now().Add(time.Hour))
				case 4:
					h.Destroy(key)
				case 5:
					h.Adopt(key, doc(i), time.Now(), time.Time{})
				}
			}
		}()
	}
	selects := make([]int, 2)
	for s := range selects {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				q := queries[i%len(queries)]
				for _, n := range h.Select("group", q.expr).Nodes {
					if err := q.check(n); err != nil {
						t.Errorf("%s: %v", q.expr, err)
						return
					}
				}
				selects[s]++
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	time.Sleep(time.Second)
	close(stop)
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("Select and the writers did not finish: deadlock")
	}
	if selects[0] == 0 || selects[1] == 0 {
		t.Fatalf("a Select loop never completed a query: %v", selects)
	}
}
