package vo

import (
	"testing"

	"glare/internal/childproc"
)

// TestMain fails the run when a process started by a test outlives the
// tests.
func TestMain(m *testing.M) { childproc.VerifyTestMain(m) }
