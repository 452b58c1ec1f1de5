package glare_test

import (
	"bufio"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"glare/internal/childproc"
	"glare/internal/superpeer"
	"glare/internal/transport"
)

// TestCommandsEndToEnd builds the real glared and glarectl binaries, boots
// a two-daemon community (the second joins the first), and drives the full
// provider/scheduler flow through the CLI: register a type document,
// discover with on-demand deployment, lease, instantiate, release and
// undeploy.
func TestCommandsEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs binaries")
	}
	bin := t.TempDir()
	build := func(name string) string {
		out := filepath.Join(bin, name)
		cmd := exec.Command("go", "build", "-o", out, "./cmd/"+name)
		cmd.Env = os.Environ()
		if msg, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("building %s: %v\n%s", name, err, msg)
		}
		return out
	}
	glared := build("glared")
	glarectl := build("glarectl")

	// Daemon A holds the community index.
	aURL := startDaemon(t, glared, "-addr", "127.0.0.1:0", "-name", "site-a")
	// Daemon B joins A's community.
	bURL := startDaemon(t, glared, "-addr", "127.0.0.1:0", "-name", "site-b", "-join", aURL)

	ctl := func(args ...string) (string, error) {
		out, err := exec.Command(glarectl, args...).CombinedOutput()
		return string(out), err
	}

	// Wait until A's index monitor has folded B in (election re-run) —
	// observable as B acquiring a super-peer role answer on Ping; simplest
	// robust signal: type registration on A becomes discoverable from B.
	typeFile := filepath.Join(bin, "type.xml")
	typeXML := `<ActivityTypeEntry name="CLIApp" type="Demo">
  <Artifact>Ant</Artifact>
  <Installation mode="on-demand">
    <DeployFile url="http://dps.uibk.ac.at/~glare/deployfiles/ant.build"/>
  </Installation>
</ActivityTypeEntry>`
	if err := os.WriteFile(typeFile, []byte(typeXML), 0o644); err != nil {
		t.Fatal(err)
	}
	if out, err := ctl("-url", aURL, "register-type", typeFile); err != nil {
		t.Fatalf("register-type: %v\n%s", err, out)
	}
	if out, err := ctl("-url", aURL, "types"); err != nil || !strings.Contains(out, "CLIApp") {
		t.Fatalf("types: %v\n%s", err, out)
	}

	// Discovery from B must resolve the type registered on A and install
	// it on demand. The election that makes A and B peers is asynchronous
	// (index monitor), so poll.
	deadline := time.Now().Add(30 * time.Second)
	var out string
	var err error
	for {
		out, err = ctl("-url", bURL, "discover", "CLIApp")
		if err == nil && strings.Contains(out, "ant") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("discover from B never succeeded: %v\n%s", err, out)
		}
		time.Sleep(500 * time.Millisecond)
	}

	// Both daemons exchange HLC stamps, so A's skew surveillance has seen
	// B by the time B's discovery has reached A.
	view, err := transport.NewClient(nil).Call(aURL+transport.ServicePrefix+superpeer.ServiceName, "ViewStatus", nil)
	if err != nil {
		t.Fatalf("ViewStatus on A: %v", err)
	}
	if peer := view.AttrOr("skewPeer", ""); peer != "site-b" {
		t.Fatalf("A's ViewStatus names skewPeer %q, want site-b", peer)
	}

	// The grid-wide metrics table scraped through A's community index must
	// cover both daemons and show the RDM traffic the flow above produced.
	if out, err = ctl("-url", aURL, "metrics"); err != nil {
		t.Fatalf("metrics: %v\n%s", err, out)
	}
	for _, want := range []string{"METRIC", "site-a", "site-b", `glare_rpc_server_requests_total{service="GLARE",op=`, `glare_rpc_server_latency_count{service="GLARE",op=`} {
		if !strings.Contains(out, want) {
			t.Fatalf("metrics table missing %q:\n%s", want, out)
		}
	}

	// The deployment lives somewhere; lease + instantiate + release on the
	// site that owns it (B deployed locally since it matches constraints).
	owner := bURL
	if !strings.Contains(out, "site-b") {
		owner = aURL
	}
	// The owner lists the deployment and its path from its own registry.
	out, err = ctl("-url", owner, "deployments", "CLIApp")
	if err != nil || !strings.Contains(out, "ant ") || !strings.Contains(out, "/opt/glare/deployments/ant/bin/ant") {
		t.Fatalf("deployments before undeploy: %v\n%s", err, out)
	}
	out, err = ctl("-url", owner, "lease", "ant", "cli-user", "exclusive", "60")
	if err != nil {
		t.Fatalf("lease: %v\n%s", err, out)
	}
	// Output: "ticket <id> (exclusive on ant)".
	fields := strings.Fields(out)
	if len(fields) < 2 || fields[0] != "ticket" {
		t.Fatalf("lease output %q", out)
	}
	ticket := fields[1]
	if out, err = ctl("-url", owner, "instantiate", "ant", "cli-user", ticket); err != nil {
		t.Fatalf("instantiate: %v\n%s", err, out)
	}
	if out, err = ctl("-url", owner, "release", ticket); err != nil {
		t.Fatalf("release: %v\n%s", err, out)
	}
	if out, err = ctl("-url", owner, "undeploy", "ant"); err != nil {
		t.Fatalf("undeploy: %v\n%s", err, out)
	}
	// Resolve (no deploy) now finds nothing locally on the owner.
	out, _ = ctl("-url", owner, "deployments", "CLIApp")
	if !strings.Contains(out, "no deployments") {
		t.Fatalf("after undeploy: %s", out)
	}

	// The round-robin history sampler (real-time monitor) must be feeding
	// series by now; `history` renders each retention archive.
	deadline = time.Now().Add(20 * time.Second)
	var hist string
	for {
		hist, err = ctl("-url", aURL, "history", "glare_site_services")
		if err == nil && strings.Contains(hist, "AVERAGE") && strings.Contains(hist, "kind=gauge") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("history never served: %v\n%s", err, hist)
		}
		time.Sleep(500 * time.Millisecond)
	}
	if hist, err = ctl("-url", aURL, "history", "--json", "glare_site_services"); err != nil ||
		!strings.Contains(hist, `"cf": "AVERAGE"`) {
		t.Fatalf("history --json: %v\n%s", err, hist)
	}
	// The --filter flag form of the metrics table.
	if hist, err = ctl("-url", aURL, "metrics", "--filter", "glare_history_"); err != nil ||
		!strings.Contains(hist, "glare_history_samples_total") {
		t.Fatalf("metrics --filter: %v\n%s", err, hist)
	}
}

// startDaemon launches glared, stopped when the test ends however it
// ends, and extracts its base URL from stdout.
func startDaemon(t *testing.T, bin string, args ...string) string {
	t.Helper()
	cmd := exec.Command(bin, args...)
	childproc.DieWithParent(cmd)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = cmd.Stdout
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
	})
	urlCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			if strings.Contains(line, "up at http") {
				i := strings.Index(line, "http")
				urlCh <- strings.TrimSpace(line[i:strings.LastIndex(line, " (")])
			}
		}
	}()
	select {
	case url := <-urlCh:
		return url
	case <-time.After(20 * time.Second):
		t.Fatal("daemon never reported its URL")
		return ""
	}
}
