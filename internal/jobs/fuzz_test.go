package jobs

import (
	"bytes"
	"encoding/json"
	"testing"

	"focus/internal/checkpoint"
)

// FuzzJobStatus puts arbitrary bytes through the status record's framed
// JSON decode, both as a whole file and as the payload of a valid frame.
// These bytes come off disk after a crash, so the decode must never
// panic, and a record it accepts must re-encode stably (encode∘decode is
// the identity on the encodings of accepted records).
func FuzzJobStatus(f *testing.F) {
	st := sampleStatus()
	full, err := json.Marshal(&st)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(full)
	f.Add([]byte(`{"id":"job-000001","spec":{"name":"seed","input_path":"r.fastq","k":2},"state":"queued"}`))
	f.Add([]byte(`{"state":"State(17)"}`))
	f.Add(checkpoint.Encode(statusVersion, full))
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, frame := range [][]byte{data, checkpoint.Encode(statusVersion, data)} {
			payload, err := checkpoint.Decode(frame, statusVersion)
			if err != nil {
				continue
			}
			st, err := decodeStatus(payload)
			if err != nil {
				continue
			}
			re, err := json.Marshal(st)
			if err != nil {
				t.Fatalf("accepted record does not re-encode: %v", err)
			}
			st2, err := decodeStatus(re)
			if err != nil {
				t.Fatalf("re-encoded record unreadable: %v\n%s", err, re)
			}
			if re2, _ := json.Marshal(st2); !bytes.Equal(re, re2) {
				t.Fatalf("record re-encode not stable:\n%s\n%s", re, re2)
			}
		}
	})
}
