package glare_test

import (
	"context"
	"os/exec"
	"path/filepath"
	"testing"
	"time"

	"glare/internal/childproc"
)

// TestExamplesRun executes every example main to completion; examples are
// living documentation and must keep working. The examples are built once
// and their binaries run directly, so a timeout kills the example itself
// rather than a `go run` wrapper that would leave it orphaned.
func TestExamplesRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs example binaries")
	}
	bin := t.TempDir()
	if out, err := exec.Command("go", "build", "-o", bin, "./examples/...").CombinedOutput(); err != nil {
		t.Fatalf("building examples: %v\n%s", err, out)
	}
	examples := []string{
		"quickstart",
		"povray-workflow",
		"ondemand-deploy",
		"leasing",
		"workflow-enactment",
		"manual-vs-glare",
		"superpeer-failover",
	}
	for _, ex := range examples {
		t.Run(ex, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
			defer cancel()
			cmd := exec.CommandContext(ctx, filepath.Join(bin, ex))
			childproc.DieWithParent(cmd)
			// Bounds the wait for output pipes after the kill on timeout.
			cmd.WaitDelay = 5 * time.Second
			out, err := cmd.CombinedOutput()
			if ctx.Err() != nil {
				t.Fatalf("example timed out\n%s", out)
			}
			if err != nil {
				t.Fatalf("example failed: %v\n%s", err, out)
			}
		})
	}
}
