package store

import (
	"bufio"
	"bytes"
	"os"
	"slices"

	"glare/internal/rrd"
)

// An epoch's file is a head — the live state as ordinary CRC frames,
// terminated by an opSnapSeal record — followed by the records appended
// since. The head is written to a temp file, fsynced, then renamed into
// place, so a crash mid-compaction leaves either the previous file or a
// sealed new one. A fresh store's first file has no head.

// writeHead writes state as the head covering records [1, seq] to a temp
// file in dir and fsyncs it: the live registry frames copied as they
// were appended or read, seqs included, then the rest of the state
// encoded as records. The open file is positioned for appends.
func writeHead(dir string, seq uint64, state *State) (*os.File, int64, error) {
	f, err := os.CreateTemp(dir, "epoch-*.tmp")
	if err != nil {
		return nil, 0, err
	}
	w := bufio.NewWriter(f)
	var size int64
	write := func(frame []byte) {
		n, _ := w.Write(frame) // a write error sticks: Flush returns it
		size += int64(n)
	}
	put := func(rec Record) {
		if err != nil {
			return
		}
		var frame []byte
		if frame, err = frameOf(rec); err == nil {
			write(frame)
		}
	}
	for _, frames := range state.frames {
		for _, frame := range frames {
			write(frame)
		}
	}
	for _, rec := range state.records() {
		put(rec)
	}
	// The seal carries MaxID: the highest ticket ID ever issued may belong
	// to an already-released ticket absent from the flattened state, and
	// recovered services must never reissue it.
	put(Record{Op: opSnapSeal, Seq: seq, ID: state.Leases.MaxID})
	if err == nil {
		err = w.Flush()
	}
	if err == nil {
		err = f.Sync()
	}
	if err != nil {
		f.Close()
		os.Remove(f.Name())
		return nil, 0, err
	}
	return f, size, nil
}

// load replays one epoch into a fresh state and, if it is trusted, makes
// that the store's state. headSeq 0 means the data has no head; otherwise
// the head's frames must be intact up to a seal for headSeq. good is the
// end of the last intact frame.
func (s *Store) load(data []byte, headSeq uint64) (good int64, ok bool) {
	res := scanFrames(data)
	st, tail := newState(rrd.NewStore(0)), res.records
	if headSeq > 0 {
		head := slices.IndexFunc(tail, func(r Record) bool { return r.Op == opSnapSeal })
		if head < 0 || tail[head].Seq != headSeq {
			return 0, false
		}
		for i, rec := range tail[:head+1] {
			st.apply(rec, res.frames[i])
		}
		tail = tail[head+1:]
		s.hasSnap, s.snapSeq, s.snapCount, s.snapAt = true, headSeq, head, s.clock.Now()
	}
	s.state, s.seq = st, headSeq
	frames := res.frames[len(res.records)-len(tail):]
	for i, rec := range tail {
		st.apply(rec, frames[i])
		s.seq = max(s.seq, rec.Seq)
		s.replayRecords++
	}
	// The live frames point into data; copy them out so it can go.
	for _, reg := range st.frames {
		for key, frame := range reg {
			reg[key] = bytes.Clone(frame)
		}
	}
	s.truncatedTotal += int64(len(data)) - res.good
	return res.good, true
}
