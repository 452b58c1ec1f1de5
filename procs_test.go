package glare_test

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// TestMain fails the run when the test binary still has a child process
// after every test has finished: a glared daemon or example binary that
// outlives its test would otherwise outlive the whole run.
func TestMain(m *testing.M) {
	code := m.Run()
	if pids, ok := childPIDs(); ok && len(pids) > 0 {
		fmt.Fprintf(os.Stderr, "FAIL: child processes outlived the tests:%s\n", describePIDs(pids))
		code = 1
	}
	os.Exit(code)
}

// childPIDs lists this process's children, running or exited but not yet
// reaped. A child belongs to the thread that started it, so every thread's
// list is read. ok is false where /proc does not offer the lists.
func childPIDs() (pids []string, ok bool) {
	lists, err := filepath.Glob("/proc/self/task/*/children")
	if err != nil || len(lists) == 0 {
		return nil, false
	}
	for _, list := range lists {
		b, err := os.ReadFile(list)
		if err != nil {
			continue // the thread exited between Glob and ReadFile
		}
		pids = append(pids, strings.Fields(string(b))...)
	}
	return pids, true
}

func describePIDs(pids []string) string {
	var b strings.Builder
	for _, pid := range pids {
		cmd, _ := os.ReadFile("/proc/" + pid + "/cmdline")
		fmt.Fprintf(&b, "\n  pid %s: %s", pid, strings.ReplaceAll(string(cmd), "\x00", " "))
	}
	return b.String()
}

// The detector TestMain relies on sees a live child, and stops seeing it
// once the child has been stopped and reaped.
func TestChildDetectorSeesUnreapedChild(t *testing.T) {
	if _, ok := childPIDs(); !ok {
		t.Skip("no /proc/self/task/*/children on this platform")
	}
	sleep, err := exec.LookPath("sleep")
	if err != nil {
		t.Skip("no sleep binary")
	}
	cmd := exec.Command(sleep, "60")
	dieWithParent(cmd)
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
	})
	pid := strconv.Itoa(cmd.Process.Pid)
	if pids, _ := childPIDs(); !slices.Contains(pids, pid) {
		t.Fatalf("live child %s not among children %v", pid, pids)
	}
	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	_ = cmd.Wait() // reports the signal that ended it
	if pids, _ := childPIDs(); slices.Contains(pids, pid) {
		t.Fatalf("reaped child %s still among children %v", pid, pids)
	}
}
