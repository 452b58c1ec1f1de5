// Package childproc keeps test binaries from leaving processes behind: it
// lists a process's children, fails a test run that still has one when
// its tests have finished, and asks the kernel to end a spawned process
// together with the test binary.
package childproc

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// M is what a TestMain receives (*testing.M).
type M interface{ Run() int }

// VerifyTestMain runs the tests of m and exits with their code, or with 1
// when the test binary still has a child process after every test has
// finished: a daemon or example binary that outlives its test would
// otherwise outlive the whole run. Call it as a package's TestMain body.
func VerifyTestMain(m M) {
	code := m.Run()
	if pids, ok := List(); ok && len(pids) > 0 {
		fmt.Fprintf(os.Stderr, "FAIL: child processes outlived the tests:%s\n", Describe(pids))
		code = 1
	}
	os.Exit(code)
}

// List returns this process's children, running or exited but not yet
// reaped. A child belongs to the thread that started it, so every thread's
// list is read. ok is false where /proc does not offer the lists.
func List() (pids []string, ok bool) {
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

// Describe renders pids one a line with each process's command line.
func Describe(pids []string) string {
	var b strings.Builder
	for _, pid := range pids {
		cmd, _ := os.ReadFile("/proc/" + pid + "/cmdline")
		fmt.Fprintf(&b, "\n  pid %s: %s", pid, strings.ReplaceAll(string(cmd), "\x00", " "))
	}
	return b.String()
}
