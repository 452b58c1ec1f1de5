//go:build !linux

package childproc

import "os/exec"

// DieWithParent does nothing where the kernel has no parent-death signal.
func DieWithParent(*exec.Cmd) {}
