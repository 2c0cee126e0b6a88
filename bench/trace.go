package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer. Parent is the index of the span
// that caused it (-1 for a root); spans of one workload share its name as
// their identifier.
type span struct {
	Name     string
	Layer    string
	Start    time.Time
	End      time.Time
	Parent   int
	Workload string
	// Lane separates spans that overlap in time (concurrent jobs) into
	// their own rows of the trace viewer; 0 for the replay's own goroutine.
	Lane int
}

func (s span) dur() time.Duration { return s.End.Sub(s.Start) }

// tracer keeps the spans of one traced iteration in memory. begin/end nest
// on a stack, so they must be called from the one goroutine that replays
// the pipeline; add records a span whose times were measured elsewhere.
type tracer struct {
	workload string
	spans    []span
	stack    []int
}

func newTracer(workload string) *tracer { return &tracer{workload: workload} }

func (t *tracer) begin(name, layer string) int {
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Layer: layer, Parent: parent, Workload: t.workload, Start: time.Now()})
	id := len(t.spans) - 1
	t.stack = append(t.stack, id)
	return id
}

func (t *tracer) end(id int) {
	t.spans[id].End = time.Now()
	t.stack = t.stack[:len(t.stack)-1]
}

func (t *tracer) add(name, layer string, start, end time.Time, parent, lane int) int {
	t.spans = append(t.spans, span{Name: name, Layer: layer, Start: start, End: end, Parent: parent, Workload: t.workload, Lane: lane})
	return len(t.spans) - 1
}

// total sums the durations of every span called name.
func (t *tracer) total(name string) time.Duration {
	var d time.Duration
	for _, s := range t.spans {
		if s.Name == name {
			d += s.dur()
		}
	}
	return d
}

// self is a span's duration minus the part of its interval that its child
// spans cover (children may overlap each other, so the union is taken).
func (t *tracer) self(id int) time.Duration {
	type iv struct{ a, b time.Time }
	var kids []iv
	for _, s := range t.spans {
		if s.Parent == id {
			kids = append(kids, iv{s.Start, s.End})
		}
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].a.Before(kids[j].a) })
	var covered time.Duration
	var hi time.Time
	for _, k := range kids {
		if k.a.Before(hi) {
			k.a = hi
		}
		if k.b.After(k.a) {
			covered += k.b.Sub(k.a)
			hi = k.b
		}
	}
	return t.spans[id].dur() - covered
}

// chromeEvent is one complete ("X") event of the Chrome trace-event
// format, which Perfetto and chrome://tracing open directly.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // microseconds
	Dur  float64        `json:"dur"` // microseconds
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

func (t *tracer) writeChrome(path string) error {
	events := make([]chromeEvent, 0, len(t.spans))
	if len(t.spans) > 0 {
		t0 := t.spans[0].Start
		for i, s := range t.spans {
			events = append(events, chromeEvent{
				Name: s.Name, Cat: s.Layer, Ph: "X",
				Ts:  float64(s.Start.Sub(t0)) / float64(time.Microsecond),
				Dur: float64(s.dur()) / float64(time.Microsecond),
				Pid: 1, Tid: s.Lane + 1,
				Args: map[string]any{
					"workload": s.Workload,
					"parent":   s.Parent,
					"self_us":  float64(t.self(i)) / float64(time.Microsecond),
				},
			})
		}
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
