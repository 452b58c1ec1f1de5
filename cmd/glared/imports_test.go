package main

import (
	"go/build"
	"path/filepath"
	"strings"
	"testing"
)

// TestDaemonDoesNotLinkFaultInjection walks the daemon's non-test import
// graph through the module's own source directories and fails if it
// reaches the fault injector, which only tests and experiments may link.
// Every package is read with build.ImportDir on a local directory, so the
// walk runs no go command.
func TestDaemonDoesNotLinkFaultInjection(t *testing.T) {
	const module, self, banned = "glare", "glare/cmd/glared", "glare/internal/faultinject"
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	parent := map[string]string{self: ""}
	queue := []string{self}
	for len(queue) > 0 {
		path := queue[0]
		queue = queue[1:]
		dir := filepath.Join(root, filepath.FromSlash(strings.TrimPrefix(path, module+"/")))
		pkg, err := build.ImportDir(dir, 0)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		for _, imp := range pkg.Imports {
			if !strings.HasPrefix(imp, module+"/") {
				continue
			}
			if _, seen := parent[imp]; seen {
				continue
			}
			parent[imp] = path
			if imp == banned {
				chain := imp
				for p := path; p != ""; p = parent[p] {
					chain = p + " -> " + chain
				}
				t.Fatalf("glared links the fault injector: %s", chain)
			}
			queue = append(queue, imp)
		}
	}
	// Guard against a walk that passes because it found nothing.
	if _, ok := parent["glare/internal/rdm"]; !ok {
		t.Fatalf("walk from %s never reached glare/internal/rdm (reached %d packages)", root, len(parent))
	}
}
