package glare_test

import (
	"os/exec"
	"syscall"
)

// dieWithParent asks the kernel to end cmd's process when the thread that
// started it ends with the test binary. A `go test -timeout` panic skips
// every t.Cleanup, so without this a glared daemon or example binary
// would be orphaned.
func dieWithParent(cmd *exec.Cmd) {
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}
