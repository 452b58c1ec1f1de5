package childproc

import (
	"os/exec"
	"syscall"
)

// DieWithParent asks the kernel to end cmd's process when the thread that
// started it ends with the test binary. A `go test -timeout` panic skips
// every t.Cleanup, so without this a spawned daemon or example binary
// would be orphaned.
func DieWithParent(cmd *exec.Cmd) {
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}
