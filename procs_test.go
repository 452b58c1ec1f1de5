package glare_test

import (
	"testing"

	"glare/internal/childproc"
)

// TestMain fails the run when a glared daemon or example binary started
// by a test outlives the tests.
func TestMain(m *testing.M) { childproc.VerifyTestMain(m) }
