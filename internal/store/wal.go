package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
)

// Frame layout: [4B big-endian payload length][4B CRC32-IEEE of payload][payload].
const frameHeader = 8

// maxRecordBytes bounds a single record so a corrupt length field cannot
// make recovery attempt a multi-gigabyte read.
const maxRecordBytes = 16 << 20

// encodeFrame wraps one encoded record in a checksummed frame.
func encodeFrame(payload []byte) []byte {
	buf := make([]byte, frameHeader+len(payload))
	copy(buf[frameHeader:], payload)
	return sealFrame(buf)
}

// sealFrame fills in the header of a frame whose payload follows it.
func sealFrame(buf []byte) []byte {
	payload := buf[frameHeader:]
	binary.BigEndian.PutUint32(buf[0:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(buf[4:8], crc32.ChecksumIEEE(payload))
	return buf
}

// frameOf encodes rec into a checksummed frame. A registry record is
// encoded in place, in one allocation: the store keeps that frame as the
// record's live state.
func frameOf(rec Record) ([]byte, error) {
	if !rec.Op.binary() {
		payload, err := rec.encode()
		if err != nil {
			return nil, err
		}
		return encodeFrame(payload), nil
	}
	buf := make([]byte, frameHeader, frameHeader+rec.binarySize())
	return sealFrame(rec.appendBinary(buf)), nil
}

// scanResult is what scanning one file yields.
type scanResult struct {
	records []Record
	// frames[i] is records[i]'s frame, a slice of the scanned data.
	frames [][]byte
	// good is the byte offset of the end of the last intact frame; bytes
	// past it are torn or corrupt.
	good int64
	// torn reports whether the file ended in a damaged frame.
	torn bool
}

// scanFrames decodes every intact frame from data, stopping (not failing)
// at the first torn or checksum-corrupt record. This is the property that
// makes recovery total: whatever a crash left behind, the longest valid
// prefix is the state.
func scanFrames(data []byte) scanResult {
	var res scanResult
	off := int64(0)
	for {
		rest := data[off:]
		if len(rest) == 0 {
			res.good = off
			return res
		}
		if len(rest) < frameHeader {
			res.good, res.torn = off, true
			return res
		}
		n := binary.BigEndian.Uint32(rest[0:4])
		sum := binary.BigEndian.Uint32(rest[4:8])
		if n > maxRecordBytes || int(n) > len(rest)-frameHeader {
			res.good, res.torn = off, true
			return res
		}
		payload := rest[frameHeader : frameHeader+int(n)]
		if crc32.ChecksumIEEE(payload) != sum {
			res.good, res.torn = off, true
			return res
		}
		rec, err := decodeRecord(payload)
		if err != nil {
			// A frame that checksums but does not decode is corruption
			// written before the CRC was computed; treat it as a tear too.
			res.good, res.torn = off, true
			return res
		}
		res.records = append(res.records, rec)
		res.frames = append(res.frames, rest[:frameHeader+int(n)])
		off += frameHeader + int64(n)
	}
}

// File naming, zero-padded so lexical order is chronological order. The
// live file is named for the seq its head covers (0 for a fresh store's
// headless first file); a compaction writes its head to an epoch-*.tmp
// file first.
const epochFormat = "epoch-%020d.wal"

func epochName(seq uint64) string { return fmt.Sprintf(epochFormat, seq) }

// parseEpoch reports whether name is an epoch file's, and its seq.
func parseEpoch(name string) (uint64, bool) {
	var n uint64
	_, err := fmt.Sscanf(name, epochFormat, &n)
	return n, err == nil && epochName(n) == name
}

// storeFiles are the store's files in a directory: its epochs, oldest
// first; every file of the older snapshot-and-segment layout; and all
// the files a boot may remove, epochs and the temp files a crash
// mid-compaction left (epoch-*.tmp, or snap-*.tmp from the older layout).
type storeFiles struct{ epochs, legacy, all []string }

// listDir finds the store's files in dir. Any other file is left alone.
func listDir(dir string) (storeFiles, error) {
	var fs storeFiles
	entries, err := os.ReadDir(dir) // sorted by name
	if err != nil {
		return fs, err
	}
	for _, e := range entries {
		name := e.Name()
		match := func(pattern string) bool { ok, _ := filepath.Match(pattern, name); return ok }
		switch _, epoch := parseEpoch(name); {
		case e.IsDir():
		case epoch:
			fs.epochs = append(fs.epochs, name)
			fs.all = append(fs.all, name)
		case match("snap-*.snap") || match("wal-*.log"):
			fs.legacy = append(fs.legacy, name)
		case match("epoch-*.tmp") || match("snap-*.tmp"):
			fs.all = append(fs.all, name)
		}
	}
	return fs, nil
}

// syncDir fsyncs a directory so renames and unlinks inside it are durable.
// Best effort: some filesystems refuse directory fsync.
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	_ = d.Sync()
	_ = d.Close()
}
