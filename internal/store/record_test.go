package store

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
	"unicode/utf8"
)

// timeEdgePuts are registry puts whose times are where an encoding can
// go wrong: zero, before 1678 and after 2262 (outside UnixNano's range),
// and in a zone other than UTC.
func timeEdgePuts() []Record {
	zone := time.FixedZone("CET", 3600)
	pre := time.Date(1500, 2, 3, 4, 5, 6, 7, time.UTC)
	post := time.Date(2500, 6, 7, 8, 9, 10, 999999999, time.UTC)
	return []Record{
		{Seq: 1, Op: OpPut, Reg: RegATR, Key: "zero", Doc: "<Properties/>"},
		{Seq: 2, Op: OpPut, Reg: RegADR, Key: "pre", Doc: "<a>&lt;</a>", LUT: pre, Term: pre.Add(time.Hour)},
		{Seq: 3, Op: OpPut, Reg: RegADR, Key: "post", Doc: "<b/>", LUT: post, Term: post},
		{Seq: 1 << 40, Op: OpPut, Reg: "replica:site-01:atr", Key: "zone",
			LUT: time.Date(2005, 11, 12, 1, 2, 3, 4, zone), Term: time.Date(2006, 1, 1, 0, 0, 0, 0, zone)},
		{Seq: 5, Op: OpDelete, Reg: RegATR, Key: "pre"},
	}
}

// sameRecord compares two records field by field, times with Equal.
func sameRecord(a, b Record) bool {
	if !a.LUT.Equal(b.LUT) || !a.Term.Equal(b.Term) {
		return false
	}
	a.LUT, a.Term, b.LUT, b.Term = time.Time{}, time.Time{}, time.Time{}, time.Time{}
	return reflect.DeepEqual(a, b)
}

// checkEncodingsAgree is the differential oracle: a record decodes alike
// from its binary and its JSON encoding. JSON cannot carry years outside
// 0–9999 or invalid UTF-8, so a record holding either is not compared.
func checkEncodingsAgree(t *testing.T, r Record) {
	t.Helper()
	j, err := json.Marshal(r)
	if err != nil || !utf8.ValidString(r.Reg) || !utf8.ValidString(r.Key) || !utf8.ValidString(r.Doc) {
		return
	}
	fromJSON, err := decodeRecord(j)
	if err != nil {
		t.Fatalf("JSON %s does not decode: %v", j, err)
	}
	b, err := r.encode()
	if err != nil {
		t.Fatal(err)
	}
	fromBinary, err := decodeRecord(b)
	if err != nil {
		t.Fatalf("binary %q does not decode: %v", b, err)
	}
	if !sameRecord(fromBinary, fromJSON) {
		t.Fatalf("binary decodes to %+v, JSON to %+v", fromBinary, fromJSON)
	}
}

// FuzzDecodeRecord: no payload makes decodeRecord panic; a payload that
// decodes as binary re-encodes to the same bytes; and a registry record,
// however it decoded, decodes alike from its binary and JSON encodings.
// Non-registry seeds encode as JSON either way, so for them the oracle
// holds by construction.
func FuzzDecodeRecord(f *testing.F) {
	for _, p := range seedPayloads(f, append(recoverSeeds(f), timeEdgePuts()...)) {
		f.Add(p)
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		r, err := decodeRecord(payload)
		if err != nil || !r.Op.binary() {
			return
		}
		if payload[0] == binaryVersion {
			if got, _ := r.encode(); !bytes.Equal(got, payload) {
				t.Fatalf("%q decodes to %+v, which re-encodes to %q", payload, r, got)
			}
		}
		// A JSON payload may carry fields a registry record does not.
		checkEncodingsAgree(t, Record{Seq: r.Seq, Op: r.Op, Reg: r.Reg, Key: r.Key, Doc: r.Doc, LUT: r.LUT, Term: r.Term})
	})
}

// TestBinaryRecordSize: a registry record's binary payload is exactly
// binarySize bytes, so frameOf encodes it in one allocation.
func TestBinaryRecordSize(t *testing.T) {
	for _, r := range timeEdgePuts() {
		if b := r.appendBinary(nil); len(b) != r.binarySize() {
			t.Errorf("%s: %d bytes, binarySize %d", r.Key, len(b), r.binarySize())
		}
	}
}

// TestJSONEpochFileBoots: a file in the form stores wrote before registry
// records were binary — every record JSON, a head holding every op kind
// and its seal, then a tail — boots to the fold of its records. A
// compaction then writes a head that mixes the copied JSON frames with
// binary ones appended since, and the reopen recovers the same state.
func TestJSONEpochFileBoots(t *testing.T) {
	at := time.Date(2005, 11, 12, 0, 0, 0, 0, time.UTC)
	var head []Record
	for _, r := range recoverSeeds(t) {
		if r.Op != opSnapSeal {
			head = append(head, r)
		}
	}
	head = append(head,
		Record{Op: OpPut, Reg: RegATR, Key: "Old", Doc: "<Properties>old</Properties>", LUT: at, Term: at.Add(time.Hour)},
		Record{Op: OpPut, Reg: RegADR, Key: "dep", Doc: "<Properties>dep</Properties>", LUT: at})
	const sealSeq = 40
	tail := []Record{
		{Seq: 41, Op: OpPut, Reg: RegATR, Key: "Tail", Doc: "<Properties>tail</Properties>", LUT: at.Add(time.Minute)},
		{Seq: 42, Op: OpPut, Reg: RegATR, Key: "Old", Doc: "<Properties>newer</Properties>", LUT: at.Add(2 * time.Minute)},
		{Seq: 43, Op: OpLeaseLimit, Key: "jpovray", Limit: 3},
	}
	var data []byte
	for _, r := range append(append(head, Record{Seq: sealSeq, Op: opSnapSeal, ID: 7}), tail...) {
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		data = append(data, encodeFrame(b)...)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, epochName(sealSeq)), data, 0o644); err != nil {
		t.Fatal(err)
	}

	// The fold the records give, appended to a fresh store.
	ref := mustOpen(t, Options{Dir: t.TempDir(), Fsync: FsyncNever, SnapshotEvery: -1})
	appendAll(t, ref, append(head, tail...)...)
	want, wantHist := stateJSON(t, ref)

	s := mustOpen(t, Options{Dir: dir, Fsync: FsyncNever, SnapshotEvery: -1})
	if got, gotHist := stateJSON(t, s); got != want || gotHist != wantHist {
		t.Fatalf("JSON file booted to\n%s\n%s\nwant\n%s\n%s", got, gotHist, want, wantHist)
	}
	if seq := s.Status().LastSeq; seq != 43 {
		t.Fatalf("last seq %d, want 43", seq)
	}
	late := put(RegADR, "late", "<Properties>late</Properties>", at)
	appendAll(t, s, late)
	appendAll(t, ref, late)
	want, wantHist = stateJSON(t, ref)
	if err := s.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// The new head holds the JSON puts as they were read and the binary
	// one as it was appended.
	b, err := os.ReadFile(filepath.Join(dir, epochName(44)))
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[string]byte{}
	res := scanFrames(b)
	for i, rec := range res.records {
		if rec.Op == OpPut {
			kinds[rec.Key] = res.frames[i][frameHeader]
		}
	}
	wantKinds := map[string]byte{"Old": '{', "dep": '{', "Tail": '{', "late": binaryVersion}
	if !reflect.DeepEqual(kinds, wantKinds) {
		t.Fatalf("head put encodings = %q, want %q", kinds, wantKinds)
	}
	re := mustOpen(t, Options{Dir: dir, Fsync: FsyncNever, SnapshotEvery: -1})
	if got, gotHist := stateJSON(t, re); got != want || gotHist != wantHist {
		t.Fatalf("reopen after the mixed head gave\n%s\n%s\nwant\n%s\n%s", got, gotHist, want, wantHist)
	}
}
