package jobs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"

	"focus/internal/checkpoint"
	"focus/internal/dna"
)

// Job-record persistence. Each job's checkpoint namespace holds, next to
// the assembly frames, one status record, rewritten at every state change.
// It is the JSON the HTTP API serves, inside the checkpoint package's CRC
// framing, so a torn write is detected, not half-loaded — a restarted
// server requeues exactly the durable jobs that had not finished. The
// decode is fuzzed (FuzzJobStatus) since it reads disk bytes that
// survived a crash.

// statusVersion is the framed payload's version; bump on any change to
// the record's JSON.
const statusVersion = 2

// statusFile is the record's name inside a job's namespace directory
// (checkpoint.Latest only scans ckpt-*.fckp, so it coexists with the
// assembly frames).
const statusFile = "status.fjob"

// writeStatus persists the status record into the job's namespace dir.
func writeStatus(dir string, st *Status) error {
	payload, err := json.Marshal(st)
	if err != nil {
		return fmt.Errorf("jobs: status record: %w", err)
	}
	return checkpoint.WriteFile(filepath.Join(dir, statusFile), statusVersion, payload)
}

// readStatus loads a status record (errors.Is(err, fs.ErrNotExist) when
// absent).
func readStatus(dir string) (*Status, error) {
	payload, err := checkpoint.ReadFile(filepath.Join(dir, statusFile), statusVersion)
	if err != nil {
		return nil, err
	}
	return decodeStatus(payload)
}

// decodeStatus parses a status record's payload. An unknown state name
// fails the decode (State.UnmarshalJSON), so no impossible status is
// materialized.
func decodeStatus(payload []byte) (*Status, error) {
	var st Status
	if err := json.Unmarshal(payload, &st); err != nil {
		return nil, fmt.Errorf("jobs: status record: %w", err)
	}
	return &st, nil
}

// contigsVersion is the contigs file's framed payload version; bump on any
// change to its encoding.
const contigsVersion = 1

// contigsFile holds a Done job's contigs inside its namespace, beside the
// status record: FASTA (contig i named i) in the same CRC framing and
// atomic write.
const contigsFile = "contigs.fjob"

// writeContigsFASTA writes contigs as FASTA, contig i named i: the
// contigs file's payload and the body of GET /jobs/{id}/contigs.
func writeContigsFASTA(w io.Writer, contigs [][]byte) error {
	recs := make([]dna.Read, len(contigs))
	for i, c := range contigs {
		recs[i] = dna.Read{ID: strconv.Itoa(i), Seq: c}
	}
	return dna.WriteFASTA(w, recs, 80)
}

// writeContigs persists a Done job's contigs into its namespace dir.
func writeContigs(dir string, contigs [][]byte) error {
	var fasta bytes.Buffer
	if err := writeContigsFASTA(&fasta, contigs); err != nil {
		return err
	}
	return checkpoint.WriteFile(filepath.Join(dir, contigsFile), contigsVersion, fasta.Bytes())
}

// readContigs loads the contigs writeContigs stored in dir.
func readContigs(dir string) ([][]byte, error) {
	payload, err := checkpoint.ReadFile(filepath.Join(dir, contigsFile), contigsVersion)
	if err != nil {
		return nil, err
	}
	recs, err := dna.ReadFASTA(bytes.NewReader(payload))
	if err != nil {
		return nil, fmt.Errorf("jobs: contigs record: %w", err)
	}
	contigs := make([][]byte, len(recs))
	for i, r := range recs {
		contigs[i] = r.Seq
	}
	return contigs, nil
}

// statusExists reports whether dir holds a status record at all (used by
// reload to skip foreign directories).
func statusExists(dir string) bool {
	_, err := os.Stat(filepath.Join(dir, statusFile))
	return err == nil
}
