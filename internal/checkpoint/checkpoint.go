// Package checkpoint provides durable, corruption-evident checkpoint
// files for phase-boundary crash recovery (DESIGN.md §11). It is a
// generic framing layer: callers bring an opaque payload (the assembly
// package encodes its master graph with its Wire codecs) and a version
// number; checkpoint owns atomicity and integrity.
//
// File format:
//
//	offset 0: magic "FCKP" (4 bytes)
//	offset 4: version uint32 LE (caller-defined payload schema version)
//	offset 8: payload (len(file) - 12 bytes)
//	last 4:   CRC32 (IEEE) over bytes [0, len(file)-4) — magic, version
//	          and payload — little endian
//
// Writes are atomic: payload goes to a temp file in the target directory,
// is fsynced, then renamed over the final name (rename is atomic on
// POSIX), and the directory is fsynced so the rename itself is durable. A
// crash mid-write leaves only a stale temp file, never a half-written
// checkpoint under a valid name; a torn write that somehow survives is
// caught by the CRC. Corrupt or truncated files are detected and reported
// (ErrCorrupt), never silently loaded.
package checkpoint

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

var (
	// ErrCorrupt marks a checkpoint file whose magic, size, or CRC check
	// failed — the file must not be trusted.
	ErrCorrupt = errors.New("checkpoint: corrupt or truncated file")
	// ErrVersion marks a structurally valid checkpoint whose payload
	// schema version differs from what the caller expects.
	ErrVersion = errors.New("checkpoint: version mismatch")
	// ErrNone reports that a directory holds no checkpoint files at all
	// (distinct from holding only corrupt ones, which is an ErrCorrupt).
	ErrNone = errors.New("checkpoint: no checkpoint found")
)

var magic = [4]byte{'F', 'C', 'K', 'P'}

const (
	headerSize = 8 // magic + version
	footerSize = 4 // crc32
	// prefix/suffix of the sequence-numbered file naming convention.
	namePrefix = "ckpt-"
	nameSuffix = ".fckp"
)

// Name returns the canonical file name of checkpoint sequence number seq.
// Zero-padded so lexical order equals numeric order.
func Name(seq int) string {
	return fmt.Sprintf("%s%09d%s", namePrefix, seq, nameSuffix)
}

// parseSeq extracts the sequence number from a canonical name; ok is
// false for files that do not follow the convention.
func parseSeq(name string) (int, bool) {
	if !strings.HasPrefix(name, namePrefix) || !strings.HasSuffix(name, nameSuffix) {
		return 0, false
	}
	mid := name[len(namePrefix) : len(name)-len(nameSuffix)]
	n, err := strconv.Atoi(mid)
	if err != nil || n < 0 {
		return 0, false
	}
	return n, true
}

// Encode frames a payload: header + payload + CRC footer. Exposed for
// tests and in-memory round-trips; WriteFile is the durable path.
func Encode(version uint32, payload []byte) []byte {
	buf := make([]byte, 0, headerSize+len(payload)+footerSize)
	buf = append(buf, magic[:]...)
	buf = binary.LittleEndian.AppendUint32(buf, version)
	buf = append(buf, payload...)
	sum := crc32.ChecksumIEEE(buf)
	return binary.LittleEndian.AppendUint32(buf, sum)
}

// Decode validates a framed checkpoint and returns its payload. The
// returned slice aliases data.
func Decode(data []byte, wantVersion uint32) ([]byte, error) {
	if len(data) < headerSize+footerSize {
		return nil, fmt.Errorf("%w: %d bytes, need at least %d", ErrCorrupt, len(data), headerSize+footerSize)
	}
	if [4]byte(data[:4]) != magic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrCorrupt, data[:4])
	}
	body := data[:len(data)-footerSize]
	want := binary.LittleEndian.Uint32(data[len(data)-footerSize:])
	if got := crc32.ChecksumIEEE(body); got != want {
		return nil, fmt.Errorf("%w: crc 0x%08x, footer says 0x%08x", ErrCorrupt, got, want)
	}
	if v := binary.LittleEndian.Uint32(data[4:8]); v != wantVersion {
		return nil, fmt.Errorf("%w: file version %d, expected %d", ErrVersion, v, wantVersion)
	}
	return body[headerSize:], nil
}

// WriteFile atomically writes a framed checkpoint to path.
func WriteFile(path string, version uint32, payload []byte) error {
	if err := writeAtomic(path, Encode(version, payload)); err != nil {
		return fmt.Errorf("checkpoint: write %s: %w", path, err)
	}
	return nil
}

// writeAtomic is the package's one durable write: temp file in the target's directory, fsync,
// rename over the target, directory fsync. A crash at any point leaves
// either the old file or the new one under the name, never a torn one.
func writeAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	_, err = tmp.Write(data)
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmpName, path)
	}
	if err != nil {
		os.Remove(tmpName)
		return err
	}
	syncDir(dir)
	return nil
}

// syncDir fsyncs a directory so a just-completed rename is durable.
// Best-effort: some filesystems refuse directory fsync.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}

// ReadFile loads and validates one checkpoint file.
func ReadFile(path string, wantVersion uint32) ([]byte, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	payload, err := Decode(data, wantVersion)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %s: %w", path, err)
	}
	return payload, nil
}

// Write stores a payload as sequence number seq in dir, creating dir if
// needed.
func Write(dir string, seq int, version uint32, payload []byte) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	return WriteFile(filepath.Join(dir, Name(seq)), version, payload)
}

// Latest loads the newest valid checkpoint in dir. Files are tried in
// descending sequence order; corrupt, truncated, or wrong-version files
// are skipped, and every skip is reported in skipped so the caller can
// surface them — a corrupt checkpoint is never silently loaded, and never
// silently terminal when an older valid one exists. Returns ErrNone when
// dir holds no checkpoint files at all, and an ErrCorrupt-wrapping error
// when files exist but none validate; it also wraps the newest file's own
// reason, so a directory of another schema version is an ErrVersion too.
func Latest(dir string, wantVersion uint32) (payload []byte, seq int, skipped []error, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, 0, nil, ErrNone
		}
		return nil, 0, nil, fmt.Errorf("checkpoint: %w", err)
	}
	var seqs []int
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if n, ok := parseSeq(e.Name()); ok {
			seqs = append(seqs, n)
		}
	}
	if len(seqs) == 0 {
		return nil, 0, nil, ErrNone
	}
	sort.Sort(sort.Reverse(sort.IntSlice(seqs)))
	for _, n := range seqs {
		p, rerr := ReadFile(filepath.Join(dir, Name(n)), wantVersion)
		if rerr != nil {
			skipped = append(skipped, rerr)
			continue
		}
		return p, n, skipped, nil
	}
	return nil, 0, skipped, fmt.Errorf("%w: %d checkpoint file(s) in %s, none valid (first: %w)",
		ErrCorrupt, len(seqs), dir, skipped[0])
}
