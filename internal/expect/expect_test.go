package expect

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"glare/internal/simclock"
	"glare/internal/site"
)

func testSite() (*site.Site, *simclock.Virtual) {
	v := simclock.NewVirtual(time.Time{})
	s := site.New(site.Attributes{
		Name: "agrid1", Platform: "Intel", OS: "Linux", Arch: "32bit",
	}, v, site.StandardUniverse())
	return s, v
}

func stage(s *site.Site, artifact, dst string) {
	a, ok := s.Repo.ByName(artifact)
	if !ok {
		panic("no artifact " + artifact)
	}
	s.FS.Write(dst, site.KindFile, a.SizeBytes, a.MD5(), a.Name)
}

func TestSessionLoginCost(t *testing.T) {
	s, v := testSite()
	t0 := v.Now()
	Open(s, v, 0)
	if got := v.Now().Sub(t0); got != DefaultLoginCost {
		t.Fatalf("login cost = %v, want %v", got, DefaultLoginCost)
	}
	t0 = v.Now()
	Open(s, v, 500*time.Millisecond)
	if got := v.Now().Sub(t0); got != 500*time.Millisecond {
		t.Fatalf("custom login cost = %v", got)
	}
}

func TestInteractiveInstallWithScript(t *testing.T) {
	s, v := testSite()
	sess := Open(s, v, time.Millisecond)
	sh := sess.Shell()
	s.FS.Mkdir("/tmp/p")
	stage(s, "POVray", "/tmp/p/povray.tgz")
	if err := sh.Chdir("/tmp/p"); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.ExecContext(context.Background(), "tar xvfz povray.tgz"); err != nil {
		t.Fatal(err)
	}
	if err := sh.Chdir("povray-3.6.1"); err != nil {
		t.Fatal(err)
	}
	// The provider's send/expect patterns from the deploy-file.
	script := Script{
		{Expect: "Accept POV-Ray license", Send: "y"},
		{Expect: "User type", Send: "personal"},
		{Expect: "Install path", Send: ""},
	}
	out, err := sess.Interact("./configure --prefix=/opt/pov", script)
	if err != nil {
		t.Fatalf("interact: %v (saw %v)", err, out)
	}
	found := false
	for _, l := range out {
		if strings.Contains(l, "configured POVray") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no configure confirmation in %v", out)
	}
}

func TestWrongAnswerFailsInstall(t *testing.T) {
	s, v := testSite()
	sess := Open(s, v, time.Millisecond)
	sh := sess.Shell()
	s.FS.Mkdir("/tmp/p")
	stage(s, "POVray", "/tmp/p/povray.tgz")
	sh.Chdir("/tmp/p")
	sess.ExecContext(context.Background(), "tar xvfz povray.tgz")
	sh.Chdir("povray-3.6.1")
	script := Script{
		{Expect: "Accept POV-Ray license", Send: "n"}, // refuse
	}
	if _, err := sess.Interact("./configure", script); err == nil {
		t.Fatal("refusing the license must fail the install")
	}
}

func TestTimeoutWhenPatternNeverAppears(t *testing.T) {
	s, v := testSite()
	sess := Open(s, v, time.Millisecond)
	sess.engine.DefaultTimeout = 50 * time.Millisecond
	script := Script{{Expect: "THIS NEVER APPEARS"}}
	_, err := sess.Interact("echo hello", script)
	var me *MatchError
	if err == nil {
		t.Fatal("expected match error")
	}
	if !strings.Contains(err.Error(), "NEVER APPEARS") && !strings.Contains(err.Error(), "exited") {
		t.Fatalf("err = %v", err)
	}
	_ = me
}

func TestRegexPattern(t *testing.T) {
	s, v := testSite()
	sess := Open(s, v, time.Millisecond)
	script := Script{{Expect: `^hel+o wor.d$`, Regex: true}}
	if _, err := sess.Interact("echo hello world", script); err != nil {
		t.Fatalf("regex match failed: %v", err)
	}
	bad := Script{{Expect: `([`, Regex: true}}
	if _, err := sess.Interact("echo x", bad); err == nil {
		t.Fatal("bad regex must error")
	}
}

func TestExecFailurePropagates(t *testing.T) {
	s, v := testSite()
	sess := Open(s, v, time.Millisecond)
	if _, err := sess.ExecContext(context.Background(), "nonexistent-command"); err == nil {
		t.Fatal("failing command must propagate error")
	}
}

func TestMatchErrorMessages(t *testing.T) {
	e := &MatchError{Step: Step{Expect: "x"}, Seen: []string{"a", "b"}}
	if !strings.Contains(e.Error(), "exited") {
		t.Fatalf("exit msg = %q", e.Error())
	}
	e.Timeout = true
	if !strings.Contains(e.Error(), "timed out") {
		t.Fatalf("timeout msg = %q", e.Error())
	}
}

// TestContextKillsNeverMatchingDialogue is the deadline-aware kill path: a
// dialogue whose prompt never appears must terminate when the context
// deadline fires instead of blocking the worker for the full step (or
// prompt) timeout.
func TestContextKillsNeverMatchingDialogue(t *testing.T) {
	s, v := testSite()
	sess := Open(s, v, time.Millisecond)
	sh := sess.Shell()
	s.FS.Mkdir("/tmp/p")
	stage(s, "POVray", "/tmp/p/povray.tgz")
	sh.Chdir("/tmp/p")
	sess.ExecContext(context.Background(), "tar xvfz povray.tgz")
	sh.Chdir("povray-3.6.1")

	// ./configure emits its license prompt and then blocks awaiting input;
	// the script never matches, so without the kill switch RunContext would
	// sit out the generous step timeout.
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := sess.InteractContext(ctx, "./configure --prefix=/opt/pov", Script{
		{Expect: "THIS PROMPT NEVER APPEARS", Timeout: 30 * time.Second},
	})
	if err == nil || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	if took := time.Since(start); took > 5*time.Second {
		t.Fatalf("kill took %v, want ~the 100ms deadline", took)
	}
}

// TestContextKillWhileDraining covers the drain phase: the script has
// matched everything, but the process never exits.
func TestContextKillWhileDraining(t *testing.T) {
	s, v := testSite()
	sess := Open(s, v, time.Millisecond)
	sh := sess.Shell()
	s.FS.Mkdir("/tmp/p")
	stage(s, "POVray", "/tmp/p/povray.tgz")
	sh.Chdir("/tmp/p")
	sess.ExecContext(context.Background(), "tar xvfz povray.tgz")
	sh.Chdir("povray-3.6.1")

	// Match the first prompt but answer a question the installer did not
	// ask next; it re-prompts and waits, so the drain after the last
	// scripted step never sees the output channel close.
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	_, err := sess.InteractContext(ctx, "./configure --prefix=/opt/pov", Script{
		{Expect: "Accept POV-Ray license", Send: "y"},
	})
	if err == nil || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
}
