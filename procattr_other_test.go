//go:build !linux

package glare_test

import "os/exec"

// dieWithParent does nothing where the kernel has no parent-death signal.
func dieWithParent(*exec.Cmd) {}
