package wsrf

import (
	"strings"
	"testing"
	"time"

	"glare/internal/simclock"
	"glare/internal/xmlutil"
)

// keysAndColours derives "key=colour,…" from a home; builds counts calls.
func keysAndColours(builds *int) func([]*Resource) string {
	return func(all []*Resource) string {
		*builds++
		var b strings.Builder
		for _, r := range all {
			r.Read(func(doc *xmlutil.Node) { b.WriteString(r.Key() + "=" + doc.AttrOr("colour", "") + ",") })
		}
		return b.String()
	}
}

func colour(c string) *xmlutil.Node { return xmlutil.NewNode("Doc").SetAttr("colour", c) }

func TestViewRebuildsOnceAfterEachChange(t *testing.T) {
	clock := simclock.NewVirtual(time.Time{})
	h := newHome(clock)
	builds := 0
	v := NewView(h, keysAndColours(&builds))
	steps := []struct {
		write string
		apply func() bool
		want  string
	}{
		{"nothing", func() bool { return true }, ""},
		{"Create", func() bool { _, err := h.Create("a", colour("red")); return err == nil }, "a=red,"},
		{"Update", func() bool { return h.Update("a", func(d *xmlutil.Node) { d.SetAttr("colour", "blue") }) }, "a=blue,"},
		{"Replace", func() bool { return h.Replace("a", colour("green")) }, "a=green,"},
		{"SetTermination", func() bool { return h.SetTermination("a", clock.Now().Add(time.Minute)) }, "a=green,"},
		{"Restore", func() bool { return h.Restore("b", colour("grey"), clock.Now(), time.Time{}) != nil }, "a=green,b=grey,"},
		{"Adopt", func() bool { return h.Adopt("b", colour("pink"), clock.Now(), time.Time{}) != nil }, "a=green,b=pink,"},
		{"SweepExpired", func() bool { clock.Advance(2 * time.Minute); return len(h.SweepExpired()) == 1 }, "b=pink,"},
		{"Destroy", func() bool { return h.Destroy("b") }, ""},
	}
	for i, s := range steps {
		if !s.apply() {
			t.Fatalf("%s did not apply", s.write)
		}
		for k := 0; k < 3; k++ {
			if got := v.Get(); got != s.want {
				t.Fatalf("after %s: view = %q, want %q", s.write, got, s.want)
			}
		}
		if builds != i+1 {
			t.Fatalf("after %s: %d builds, want %d (one per change)", s.write, builds, i+1)
		}
	}
	// Writes that change nothing leave the view alone.
	h.Update("missing", func(*xmlutil.Node) {})
	h.Destroy("missing")
	if _, err := h.Create("", nil); err == nil {
		t.Fatal("empty key accepted")
	}
	v.Get()
	if builds != len(steps) {
		t.Fatalf("a failed write rebuilt the view: %d builds", builds)
	}
}

// TestViewRebuildsAfterAWriteRacingTheBuild: a write that lands while a
// build scans must not be hidden behind that build's label.
func TestViewRebuildsAfterAWriteRacingTheBuild(t *testing.T) {
	h := newHome(nil)
	h.Create("a", colour("red"))
	builds := 0
	inner := keysAndColours(&builds)
	v := NewView(h, func(all []*Resource) string {
		out := inner(all)
		if builds == 1 {
			h.Update("a", func(d *xmlutil.Node) { d.SetAttr("colour", "blue") })
		}
		return out
	})
	if got := v.Get(); got != "a=red," {
		t.Fatalf("first build = %q", got)
	}
	if got := v.Get(); got != "a=blue," {
		t.Fatalf("after the racing write: view = %q, want a=blue,", got)
	}
	if builds != 2 {
		t.Fatalf("%d builds, want 2", builds)
	}
}
