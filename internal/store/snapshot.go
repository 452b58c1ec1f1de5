package store

import (
	"bufio"
	"os"
	"path/filepath"

	"glare/internal/rrd"
)

// Snapshot files hold the flattened live state as ordinary CRC frames,
// terminated by an opSnapSeal record. They are written to a temp file,
// fsynced, then renamed into place, so a crash mid-snapshot leaves either
// the previous snapshot or a sealed new one — never a half-trusted file:
// an unsealed snapshot is skipped by recovery and the WAL (which still
// holds everything the snapshot was compacting) remains authoritative.

// writeSnapshot persists state as the snapshot covering records [1, seq].
func writeSnapshot(dir string, seq uint64, state *State) error {
	tmp, err := os.CreateTemp(dir, "snap-*.tmp")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	cleanup := func() {
		tmp.Close()
		os.Remove(tmpName)
	}
	w := bufio.NewWriter(tmp)
	for _, rec := range state.records() {
		payload, err := rec.encode()
		if err != nil {
			cleanup()
			return err
		}
		if _, err := w.Write(encodeFrame(payload)); err != nil {
			cleanup()
			return err
		}
	}
	// The seal carries MaxID: the highest ticket ID ever issued may belong
	// to an already-released ticket absent from the flattened state, and
	// recovered services must never reissue it.
	seal, err := Record{Op: opSnapSeal, Seq: seq, ID: state.Leases.MaxID}.encode()
	if err != nil {
		cleanup()
		return err
	}
	if _, err := w.Write(encodeFrame(seal)); err != nil {
		cleanup()
		return err
	}
	if err := w.Flush(); err != nil {
		cleanup()
		return err
	}
	if err := tmp.Sync(); err != nil {
		cleanup()
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return err
	}
	if err := os.Rename(tmpName, filepath.Join(dir, snapshotName(seq))); err != nil {
		os.Remove(tmpName)
		return err
	}
	syncDir(dir)
	return nil
}

// loadSnapshot reads a snapshot file; ok is false when the file is torn,
// corrupt, or missing its seal, in which case the caller falls back to an
// older snapshot (or none).
func loadSnapshot(path string) (st *State, records int, ok bool) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, false
	}
	res := scanFrames(data)
	if res.torn || len(res.records) == 0 {
		return nil, 0, false
	}
	last := res.records[len(res.records)-1]
	if last.Op != opSnapSeal {
		return nil, 0, false
	}
	st = newState(rrd.NewStore(0))
	for _, rec := range res.records[:len(res.records)-1] {
		st.apply(rec)
	}
	if last.ID > st.Leases.MaxID {
		st.Leases.MaxID = last.ID
	}
	return st, len(res.records) - 1, true
}
