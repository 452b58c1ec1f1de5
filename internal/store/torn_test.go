package store

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// seedSegment writes n records into a fresh store dir and returns its one
// file's path and raw bytes.
func seedSegment(t *testing.T, n int) (dir, segPath string, data []byte) {
	t.Helper()
	dir = t.TempDir()
	s := mustOpen(t, Options{Dir: dir, Fsync: FsyncNever, SnapshotEvery: -1})
	for i := 0; i < n; i++ {
		appendAll(t, s, put(RegATR, fmt.Sprintf("key-%02d", i),
			"<Properties>some payload body</Properties>", time.Time{}))
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if names := dirNames(t, dir); len(names) != 1 || names[0] != epochName(0) {
		t.Fatalf("files = %v, want only %s", names, epochName(0))
	}
	segPath = filepath.Join(dir, epochName(0))
	data, err := os.ReadFile(segPath)
	if err != nil {
		t.Fatal(err)
	}
	return dir, segPath, data
}

// lastFrameStart walks the frame headers to the offset where the final
// frame begins.
func lastFrameStart(t *testing.T, data []byte) int {
	t.Helper()
	off, prev := 0, 0
	for off < len(data) {
		prev = off
		n := binary.BigEndian.Uint32(data[off : off+4])
		off += frameHeader + int(n)
	}
	if off != len(data) {
		t.Fatalf("frame walk ended at %d of %d", off, len(data))
	}
	return prev
}

// TestTornTailEveryOffset truncates the segment at every byte offset
// inside the last frame — every possible power-cut point of the final
// append — and proves recovery always yields exactly the records before
// it, leaves the store appendable, and never fails the boot.
func TestTornTailEveryOffset(t *testing.T) {
	const records = 5
	_, _, data := seedSegment(t, records)
	start := lastFrameStart(t, data)

	for cut := start; cut < len(data); cut++ {
		dir := t.TempDir()
		path := filepath.Join(dir, epochName(0))
		if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(Options{Dir: dir, SnapshotEvery: -1})
		if err != nil {
			t.Fatalf("cut=%d: recovery failed: %v", cut, err)
		}
		st := s.State()
		if n := len(st.Registries[RegATR]); n != records-1 {
			t.Fatalf("cut=%d: recovered %d records, want %d", cut, n, records-1)
		}
		status := s.Status()
		if status.TruncatedBytes != int64(cut-start) {
			t.Fatalf("cut=%d: truncated %d bytes, want %d", cut, status.TruncatedBytes, cut-start)
		}
		if status.LastSeq != records-1 {
			t.Fatalf("cut=%d: lastSeq = %d", cut, status.LastSeq)
		}
		// The truncated store accepts the re-issued mutation.
		if err := s.Append(put(RegATR, "again", "<Properties/>", time.Time{})); err != nil {
			t.Fatalf("cut=%d: append after recovery: %v", cut, err)
		}
		s.Close()

		// And the repaired log replays cleanly a second time.
		re, err := Open(Options{Dir: dir, SnapshotEvery: -1})
		if err != nil {
			t.Fatalf("cut=%d: second recovery: %v", cut, err)
		}
		if n := len(re.State().Registries[RegATR]); n != records {
			t.Fatalf("cut=%d: second boot has %d records, want %d", cut, n, records)
		}
		re.Close()
	}
}

// TestCorruptByteDropsTail flips single bytes in the last frame's length,
// checksum and payload regions; each corruption must cost exactly the
// final record.
func TestCorruptByteDropsTail(t *testing.T) {
	const records = 4
	_, _, data := seedSegment(t, records)
	start := lastFrameStart(t, data)

	for _, off := range []int{start, start + 4, start + frameHeader + 2} {
		dir := t.TempDir()
		mut := append([]byte(nil), data...)
		mut[off] ^= 0xFF
		if err := os.WriteFile(filepath.Join(dir, epochName(0)), mut, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(Options{Dir: dir, SnapshotEvery: -1})
		if err != nil {
			t.Fatalf("offset %d: recovery failed: %v", off, err)
		}
		if n := len(s.State().Registries[RegATR]); n != records-1 {
			t.Fatalf("offset %d: recovered %d records, want %d", off, n, records-1)
		}
		s.Close()
	}
}
