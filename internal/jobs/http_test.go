package jobs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"focus/internal/testutil"
)

func post(t *testing.T, url, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

// TestHTTPAdmissionCodes: the admission error classes are visible as
// distinct HTTP statuses, so clients can branch without parsing text.
func TestHTTPAdmissionCodes(t *testing.T) {
	t.Cleanup(func() { testutil.NoLeaks(t) })
	s := paused(t, 2, Options{QueueDepth: 1, MemoryBudgetMB: 50, Root: t.TempDir()})
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(srv.Close)

	resp := post(t, srv.URL+"/jobs", `{"name":"a","input_path":"r.fastq","k":2}`)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit: %d, want 201", resp.StatusCode)
	}
	var created struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&created); err != nil || created.ID == "" {
		t.Fatalf("created body: id=%q err=%v", created.ID, err)
	}

	if resp := post(t, srv.URL+"/jobs", `{"input_path":"r.fastq"}`); resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("queue full: %d, want 429", resp.StatusCode)
	}
	if resp := post(t, srv.URL+"/jobs", `{"input_path":"r.fastq","max_workers":99}`); resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("worker quota: %d, want 422", resp.StatusCode)
	}
	if resp := post(t, srv.URL+"/jobs", `{"input_path":"r.fastq","memory_mb":51}`); resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("memory quota: %d, want 422", resp.StatusCode)
	}
	if resp := post(t, srv.URL+"/jobs", `{"not json`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed body: %d, want 400", resp.StatusCode)
	}
	huge := `{"input_path":"` + strings.Repeat("a", maxSpecBytes) + `"}`
	if resp := post(t, srv.URL+"/jobs", huge); resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("body over %d bytes: %d, want 413", maxSpecBytes, resp.StatusCode)
	}

	// By-id surface: status, kill, double-kill, resume, unknown id.
	if resp, err := http.Get(srv.URL + "/jobs/" + created.ID); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET job: %v %v", err, resp.StatusCode)
	} else {
		var st Status
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil || st.State != Queued {
			t.Fatalf("job doc: %+v err %v, want queued", st, err)
		}
		resp.Body.Close()
	}
	if resp, err := http.Get(srv.URL + "/jobs/job-999999"); err != nil || resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET unknown job: %v %v, want 404", err, resp.StatusCode)
	} else {
		resp.Body.Close()
	}
	for path, code := range map[string]int{
		"/jobs/" + created.ID + "/contigs": http.StatusConflict, // queued, not done
		"/jobs/job-999999/contigs":         http.StatusNotFound,
	} {
		if resp, err := http.Get(srv.URL + path); err != nil || resp.StatusCode != code {
			t.Fatalf("GET %s: %v %v, want %d", path, err, resp.StatusCode, code)
		} else {
			resp.Body.Close()
		}
	}

	del, err := http.NewRequest(http.MethodDelete, srv.URL+"/jobs/"+created.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp, err := http.DefaultClient.Do(del); err != nil || resp.StatusCode != http.StatusNoContent {
		t.Fatalf("kill: %v %v, want 204", err, resp.StatusCode)
	} else {
		resp.Body.Close()
	}
	if resp, err := http.DefaultClient.Do(del); err != nil || resp.StatusCode != http.StatusConflict {
		t.Fatalf("double kill: %v %v, want 409", err, resp.StatusCode)
	} else {
		resp.Body.Close()
	}
	// The killed job had a durable namespace: resume re-admits it.
	if resp := post(t, srv.URL+"/jobs/"+created.ID+"/resume", ""); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("resume: %d, want 204", resp.StatusCode)
	}
	// A queued (non-terminal) job is not resumable: 409.
	if resp := post(t, srv.URL+"/jobs/"+created.ID+"/resume", ""); resp.StatusCode != http.StatusConflict {
		t.Fatalf("resume non-terminal: %d, want 409", resp.StatusCode)
	}

	// Drain: submissions turn into 503.
	s.Drain(0)
	if resp := post(t, srv.URL+"/jobs", `{"input_path":"r.fastq"}`); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining: %d, want 503", resp.StatusCode)
	}
}

// TestHTTPStatusMetricsEvents: the scraped surfaces — /status, /metrics
// and the per-job NDJSON event stream — carry the queue and fleet state.
func TestHTTPStatusMetricsEvents(t *testing.T) {
	t.Cleanup(func() { testutil.NoLeaks(t) })
	s := paused(t, 2, Options{QueueDepth: 4})
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(srv.Close)

	var ids []string
	for i := 0; i < 2; i++ {
		resp := post(t, srv.URL+"/jobs", fmt.Sprintf(`{"name":"j%d","input_path":"r.fastq"}`, i))
		var created struct {
			ID string `json:"id"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&created); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, created.ID)
	}

	resp, err := http.Get(srv.URL + "/status")
	if err != nil {
		t.Fatal(err)
	}
	var page StatusPage
	if err := json.NewDecoder(resp.Body).Decode(&page); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if page.Queued != 2 || page.Running != 0 || page.Draining {
		t.Fatalf("status page %+v, want 2 queued on a live server", page)
	}
	if len(page.Fleet.Workers) != 2 || page.Fleet.Healthy != 2 {
		t.Fatalf("fleet health %+v, want 2 healthy workers", page.Fleet)
	}

	resp, err = http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var snap MetricsSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if snap.Counters["jobs_admitted_total"] != 2 || snap.Gauges["queue_depth"] != 2 {
		t.Fatalf("metrics document: %+v", snap.Counters)
	}

	// Event stream: kill mid-stream, read the transitions until EOF.
	streamResp, err := http.Get(srv.URL + "/jobs/" + ids[0] + "/events")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { streamResp.Body.Close() })
	if ct := streamResp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("events content type %q", ct)
	}
	if err := s.Kill(ids[0]); err != nil {
		t.Fatal(err)
	}
	var last Status
	sc := bufio.NewScanner(streamResp.Body)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		if err := json.Unmarshal(line, &last); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", line, err)
		}
	}
	if last.State != Killed {
		t.Fatalf("final streamed state %s, want killed", last.State)
	}
}
