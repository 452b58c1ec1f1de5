package childproc

import (
	"os/exec"
	"slices"
	"strconv"
	"testing"
)

func TestMain(m *testing.M) { VerifyTestMain(m) }

// The detector VerifyTestMain relies on sees a live child, and stops
// seeing it once the child has been stopped and reaped.
func TestChildDetectorSeesUnreapedChild(t *testing.T) {
	if _, ok := List(); !ok {
		t.Skip("no /proc/self/task/*/children on this platform")
	}
	sleep, err := exec.LookPath("sleep")
	if err != nil {
		t.Skip("no sleep binary")
	}
	cmd := exec.Command(sleep, "60")
	DieWithParent(cmd)
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
	})
	pid := strconv.Itoa(cmd.Process.Pid)
	if pids, _ := List(); !slices.Contains(pids, pid) {
		t.Fatalf("live child %s not among children %v", pid, pids)
	}
	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	_ = cmd.Wait() // reports the signal that ended it
	if pids, _ := List(); slices.Contains(pids, pid) {
		t.Fatalf("reaped child %s still among children %v", pid, pids)
	}
}
