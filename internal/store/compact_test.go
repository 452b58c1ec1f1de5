package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"glare/internal/rrd"
)

// compactRecords returns n registry upserts over 11 keys, so compaction
// folds them, each with a document naming its position.
func compactRecords(n int) []Record {
	var recs []Record
	for i := 0; i < n; i++ {
		recs = append(recs, put(RegATR, key(i%11), fmt.Sprintf("<Properties>v%d</Properties>", i), time.Time{}))
	}
	return recs
}

// foldRecords is the state the log alone gives: every record applied in
// order. It holds both the frames a head is written from and the
// decoded Registries a boot is compared with.
func foldRecords(recs []Record) *State {
	st := newState(rrd.NewStore(0))
	for _, r := range recs {
		frame, err := frameOf(r)
		if err != nil {
			panic(err)
		}
		st.apply(r, frame)
	}
	st.Registries = st.clone().Registries
	return st
}

// TestSnapshotTempFileRemovedAtBoot: a crash between creating a head's
// temp file and renaming it leaves the temp file behind. The next boot
// removes it and keeps the state; a file that is not the store's stays.
func TestSnapshotTempFileRemovedAtBoot(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, Options{Dir: dir, SnapshotEvery: -1})
	appendAll(t, s, put(RegATR, "A", "<Properties>a</Properties>", time.Time{}))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	var temps []string
	for _, pattern := range []string{"snap-*.tmp", "epoch-*.tmp"} {
		f, err := os.CreateTemp(dir, pattern)
		if err != nil {
			t.Fatal(err)
		}
		rec, _ := put(RegATR, "X", "<Properties>half</Properties>", time.Time{}).encode()
		if _, err := f.Write(encodeFrame(rec)); err != nil {
			t.Fatal(err)
		}
		f.Close()
		temps = append(temps, f.Name())
	}
	foreign := filepath.Join(dir, "notes.tmp")
	if err := os.WriteFile(foreign, []byte("not the store's"), 0o644); err != nil {
		t.Fatal(err)
	}

	re := mustOpen(t, Options{Dir: dir, SnapshotEvery: -1})
	for _, path := range temps {
		if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("temp file %s survived boot: %v", filepath.Base(path), err)
		}
	}
	if _, err := os.Stat(foreign); err != nil {
		t.Errorf("boot removed a file that is not the store's: %v", err)
	}
	atr := re.State().Registries[RegATR]
	if len(atr) != 1 || atr["A"].Doc != "<Properties>a</Properties>" {
		t.Fatalf("state after boot = %v, want only A", atr)
	}
}

// TestSnapshotSealNamesItsFile: a head whose seal names another seq than
// its file is not trusted, and boot reads the next older file.
func TestSnapshotSealNamesItsFile(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, Options{Dir: dir, SnapshotEvery: -1})
	recs := compactRecords(6)
	appendAll(t, s, recs...)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	f, _, err := writeHead(dir, 4, foldRecords(recs[:4]))
	if err != nil {
		t.Fatal(err)
	}
	f.Close()
	if err := os.Rename(f.Name(), filepath.Join(dir, epochName(99))); err != nil {
		t.Fatal(err)
	}

	re := mustOpen(t, Options{Dir: dir, SnapshotEvery: -1})
	if got := re.State().Registries; !reflect.DeepEqual(got, foldRecords(recs).Registries) || re.Status().LastSeq != 6 {
		t.Fatalf("booted %v at seq %d, want the first file's 6 records", got, re.Status().LastSeq)
	}
}

// TestCrashAtEachCompactionStep kills the store at each step of its
// third compaction: with the head written but not renamed, with the head
// renamed while the superseded file still exists, and after the deleter
// unlinked it. Each boot yields the state the log alone gives, leaves
// exactly one file, and appends on.
func TestCrashAtEachCompactionStep(t *testing.T) {
	recs := compactRecords(24) // SnapshotEvery 8: compactions at 8, 16, 24
	want := foldRecords(recs).Registries
	for _, tc := range []struct {
		step  string // "" lets the compaction finish
		files []string
		live  string
	}{
		{"head written", []string{epochName(16), "epoch-*.tmp"}, epochName(16)},
		{"head renamed", []string{epochName(16), epochName(24)}, epochName(24)},
		{"", []string{epochName(24)}, epochName(24)},
	} {
		dir := t.TempDir()
		s, err := Open(Options{Dir: dir, Fsync: FsyncNever, SnapshotEvery: 8})
		if err != nil {
			t.Fatal(err)
		}
		compactions := 0
		s.compactHook = func(step string) bool {
			if step == "head written" {
				compactions++
			}
			return compactions == 3 && step == tc.step
		}
		for i, r := range recs {
			err := s.Append(r)
			if i == len(recs)-1 && tc.step != "" {
				if !errors.Is(err, ErrCrashed) {
					t.Fatalf("%q: append error = %v, want ErrCrashed", tc.step, err)
				}
			} else if err != nil {
				t.Fatal(err)
			}
		}
		s.deleter.Wait()
		var got []string
		for _, name := range dirNames(t, dir) {
			if ok, _ := filepath.Match("epoch-*.tmp", name); ok {
				name = "epoch-*.tmp"
			}
			got = append(got, name)
		}
		if !reflect.DeepEqual(got, tc.files) {
			t.Fatalf("%q: files at the crash = %v, want %v", tc.step, got, tc.files)
		}
		// The process dies: nothing more is synced or written.
		s.mu.Lock()
		s.crashed = true
		s.mu.Unlock()
		s.Close()

		re, err := Open(Options{Dir: dir, SnapshotEvery: 8})
		if err != nil {
			t.Fatalf("%q: boot after crash: %v", tc.step, err)
		}
		if st := re.Status(); !reflect.DeepEqual(re.State().Registries, want) || st.LastSeq != 24 {
			t.Fatalf("%q: booted %v at seq %d, want %v at 24", tc.step, re.State().Registries, st.LastSeq, want)
		}
		if got := dirNames(t, dir); len(got) != 1 || got[0] != tc.live {
			t.Fatalf("%q: files after boot = %v, want only %s", tc.step, got, tc.live)
		}
		appendAll(t, re, put(RegATR, "after", "<Properties/>", time.Time{}))
		re.Close()
		again := mustOpen(t, Options{Dir: dir, SnapshotEvery: -1})
		if n := len(again.State().Registries[RegATR]); n != len(want[RegATR])+1 {
			t.Fatalf("%q: second boot has %d entries, want %d", tc.step, n, len(want[RegATR])+1)
		}
	}
}

// TestDeleterHeldAppendsComplete holds the background deleter before its
// first unlink and appends through eight compactions: no append waits on
// it, one deleter serves every superseded file, and after Close the
// directory holds one file.
func TestDeleterHeldAppendsComplete(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, Options{Dir: dir, Fsync: FsyncNever, SnapshotEvery: 8})
	release := make(chan struct{})
	started := make(chan struct{}, 8)
	s.holdDeleter = func() {
		started <- struct{}{}
		<-release
	}
	recs := compactRecords(64)
	appendAll(t, s, recs...)
	<-started
	if seq := s.Status().SnapshotSeq; seq != 64 {
		t.Fatalf("last compaction at seq %d, want 64", seq)
	}
	if names := dirNames(t, dir); len(names) != 9 {
		t.Fatalf("files while the deleter is held = %v, want 8 superseded and the live one", names)
	}
	close(release)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if n := len(started); n != 0 {
		t.Fatalf("%d more deleters started, want one for all eight files", n)
	}
	if names := dirNames(t, dir); len(names) != 1 || names[0] != epochName(64) {
		t.Fatalf("files after Close = %v, want only %s", names, epochName(64))
	}
	re := mustOpen(t, Options{Dir: dir, SnapshotEvery: -1})
	if got := re.State().Registries; !reflect.DeepEqual(got, foldRecords(recs).Registries) {
		t.Fatalf("state after reopen = %v", got)
	}
}

// TestLegacyLayoutRefused: a directory in the older two-kind layout —
// snap-<seq>.snap snapshots plus wal-<index>.log segments — fails Open
// with an error that names each of its files, and the boot leaves every
// file in the directory as it was.
func TestLegacyLayoutRefused(t *testing.T) {
	dir := t.TempDir()
	recs := compactRecords(6)
	for i := range recs {
		recs[i].Seq = uint64(i + 1)
	}
	f, _, err := writeHead(dir, 3, foldRecords(recs[:3]))
	if err != nil {
		t.Fatal(err)
	}
	f.Close()
	legacy := []string{"snap-00000000000000000003.snap", "wal-0000000000000001.log", "wal-0000000000000002.log"}
	if err := os.Rename(f.Name(), filepath.Join(dir, legacy[0])); err != nil {
		t.Fatal(err)
	}
	for i, seg := range [][]Record{recs[:3], recs[3:]} {
		var b []byte
		for _, r := range seg {
			b = append(b, encodeFrame(mustEncode(t, r))...)
		}
		if err := os.WriteFile(filepath.Join(dir, legacy[1+i]), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(filepath.Join(dir, "epoch-1.tmp"), []byte("half"), 0o644); err != nil {
		t.Fatal(err)
	}
	before := dirContents(t, dir)

	s, err := Open(Options{Dir: dir, SnapshotEvery: -1})
	if err == nil {
		s.Close()
		t.Fatal("Open booted a directory in the older layout")
	}
	for _, name := range legacy {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not name %s", err, name)
		}
	}
	if after := dirContents(t, dir); !reflect.DeepEqual(after, before) {
		t.Fatalf("refused boot changed the directory:\n%v\nwant:\n%v", after, before)
	}
}

// TestCorruptSnapshotWithoutFallbackFailsOpen: when the only file's head
// is damaged, no file can be trusted. Open fails naming the file and
// leaves it as it was, records appended after the head included, instead
// of booting empty.
func TestCorruptSnapshotWithoutFallbackFailsOpen(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, Options{Dir: dir, SnapshotEvery: -1})
	appendAll(t, s, compactRecords(4)...)
	if err := s.Snapshot(); err != nil {
		t.Fatal(err)
	}
	appendAll(t, s, put(RegATR, "after", "<Properties/>", time.Time{}))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, epochName(4))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[frameHeader+1] ^= 0xff // inside the head's first record
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	before := dirContents(t, dir)

	re, err := Open(Options{Dir: dir, SnapshotEvery: -1})
	if err == nil {
		re.Close()
		t.Fatal("Open booted with no trusted file")
	}
	if !strings.Contains(err.Error(), epochName(4)) {
		t.Errorf("error %q does not name %s", err, epochName(4))
	}
	if after := dirContents(t, dir); !reflect.DeepEqual(after, before) {
		t.Fatalf("refused boot changed the directory: %v, want %v", after, before)
	}
}

// dirContents maps each file in dir to its bytes.
func dirContents(t *testing.T, dir string) map[string]string {
	t.Helper()
	out := map[string]string{}
	for _, name := range dirNames(t, dir) {
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		out[name] = string(b)
	}
	return out
}

// TestSnapshotErrorAfterRenameSticks: once a compaction's head is renamed
// in, a failure to retire the superseded file stops the store, so no
// append goes to a file the next boot discards.
func TestSnapshotErrorAfterRenameSticks(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, Options{Dir: dir, Fsync: FsyncNever, SnapshotEvery: -1})
	recs := compactRecords(3)
	appendAll(t, s, recs...)
	s.mu.Lock()
	s.live.Close() // the compaction's sync and close of this file now fail
	s.mu.Unlock()
	if err := s.Snapshot(); err == nil {
		t.Fatal("Snapshot reported success retiring a closed file")
	}
	if s.Status().Err == "" {
		t.Fatal("the failed compaction left the store without a sticky error")
	}
	if err := s.Append(put(RegATR, "lost", "<Properties/>", time.Time{})); err == nil {
		t.Fatal("append after a failed compaction succeeded")
	}
	s.Close()

	re := mustOpen(t, Options{Dir: dir, SnapshotEvery: -1})
	if got := re.State().Registries; !reflect.DeepEqual(got, foldRecords(recs).Registries) {
		t.Fatalf("booted %v, want the three records", got)
	}
	if names := dirNames(t, dir); len(names) != 1 || names[0] != epochName(3) {
		t.Fatalf("files after boot = %v, want only %s", names, epochName(3))
	}
}
