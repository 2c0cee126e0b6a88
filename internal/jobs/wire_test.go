package jobs

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"focus/internal/checkpoint"
)

func sampleStatus() Status {
	return Status{
		ID: "job-000042",
		Spec: Spec{
			Name: "sample", InputPath: "/data/reads.fastq", K: 3, Priority: 7,
			MaxWorkers: 2, MemoryMB: 512, Deadline: 90 * time.Second, Seed: -9,
		},
		State: Killed, Error: "jobs: job killed: context canceled",
		Resumable: true, Workers: []int{0, 3}, Attempts: 2,
		SubmittedAt: 111, StartedAt: 222, FinishedAt: 333, Contigs: 5, N50: 1200,
	}
}

// TestWireRoundTrip: a status survives the record's JSON exactly. Every
// field of the sample is set, so a field the record drops fails here. An
// empty Workers list is omitted like a nil one and reads back nil.
func TestWireRoundTrip(t *testing.T) {
	in := sampleStatus()
	for _, v := range []reflect.Value{reflect.ValueOf(in), reflect.ValueOf(in.Spec)} {
		for i := 0; i < v.NumField(); i++ {
			if v.Field(i).IsZero() {
				t.Fatalf("sampleStatus leaves %s.%s zero", v.Type().Name(), v.Type().Field(i).Name)
			}
		}
	}
	payload, err := json.Marshal(&in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := decodeStatus(payload)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, *out) {
		t.Fatalf("status round trip:\nin  %+v\nout %+v", in, *out)
	}

	in.Workers = []int{}
	payload, err = json.Marshal(&in)
	if err != nil {
		t.Fatal(err)
	}
	if out, err = decodeStatus(payload); err != nil {
		t.Fatal(err)
	}
	if out.Workers != nil {
		t.Fatalf("empty workers decoded as %#v, want nil", out.Workers)
	}
}

// TestWireRejectsBadState: a state outside the lifecycle fails the read
// instead of materializing an impossible status — whether the server
// wrote it (State(17) renders as "State(17)") or the record was edited
// to an unknown name or a bare ordinal.
func TestWireRejectsBadState(t *testing.T) {
	dir := t.TempDir()
	st := sampleStatus()
	st.State = State(17)
	if err := writeStatus(dir, &st); err != nil {
		t.Fatal(err)
	}
	if _, err := readStatus(dir); err == nil {
		t.Fatal("state 17 read back without error")
	}
	for _, state := range []string{`"paused"`, `4`, `null`} {
		payload := []byte(`{"id":"job-000001","spec":{"name":"x"},"state":` + state + `}`)
		if out, err := decodeStatus(payload); err == nil {
			t.Fatalf("state %s decoded as %v", state, out.State)
		}
	}
}

// TestStatusRecordDurability: the status record round-trips through its
// framed file; truncation and corruption are detected, never half-loaded.
func TestStatusRecordDurability(t *testing.T) {
	dir := t.TempDir()
	in := sampleStatus()
	if err := writeStatus(dir, &in); err != nil {
		t.Fatal(err)
	}
	if !statusExists(dir) {
		t.Fatal("statusExists false after writeStatus")
	}
	out, err := readStatus(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, *out) {
		t.Fatalf("durable status:\nin  %+v\nout %+v", in, *out)
	}

	path := filepath.Join(dir, statusFile)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw[:len(raw)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := readStatus(dir); err == nil {
		t.Fatal("truncated status record loaded")
	}
	flipped := append([]byte(nil), raw...)
	flipped[len(flipped)/2] ^= 0x40
	if err := os.WriteFile(path, flipped, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := readStatus(dir); err == nil {
		t.Fatal("corrupted status record loaded")
	}

	// A record of another version fails loudly, never decodes as this one.
	if err := checkpoint.WriteFile(path, statusVersion-1, raw); err != nil {
		t.Fatal(err)
	}
	if _, err := readStatus(dir); !errors.Is(err, checkpoint.ErrVersion) {
		t.Fatalf("version %d record: err = %v, want ErrVersion", statusVersion-1, err)
	}
}

// TestContigsRoundTrip: contigs survive the contigs file exactly, an empty
// contig and an empty set included, and a file whose bytes were changed
// after the write is refused.
func TestContigsRoundTrip(t *testing.T) {
	dir := t.TempDir()
	for _, in := range [][][]byte{
		{[]byte("ACGTTGCA"), {}, []byte(strings.Repeat("NNACGT", 30))},
		{},
	} {
		if err := writeContigs(dir, in); err != nil {
			t.Fatal(err)
		}
		out, err := readContigs(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(out) != len(in) {
			t.Fatalf("%d contigs read back, %d written", len(out), len(in))
		}
		for i := range in {
			if string(out[i]) != string(in[i]) {
				t.Fatalf("contig %d: %q read back, %q written", i, out[i], in[i])
			}
		}
	}
	path := filepath.Join(dir, contigsFile)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := readContigs(dir); err == nil {
		t.Fatal("a changed contigs file was read")
	}
}
