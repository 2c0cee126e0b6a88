package metrics

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Registry is the operational metrics surface of the resident master
// (DESIGN.md §15): named counters, gauges and latency histograms, all
// lock-free on the hot path and snapshotable as plain JSON for the
// server's /metrics endpoint — and for the chaos tests, which scrape the
// snapshot as assertions rather than trusting logs.
//
// Every accessor is nil-safe on both the registry and the returned
// instrument: code paths instrumented with an optional registry pay a
// nil check, nothing more, when metrics are off.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named monotonic counter, creating it on first use.
// Nil receiver returns a nil (no-op) counter.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use. Nil receiver
// returns a nil (no-op) gauge.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named latency histogram, creating it on first
// use. Nil receiver returns a nil (no-op) histogram.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// Counter is a monotonically increasing int64.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n (nil-safe).
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc increments the counter by one (nil-safe).
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a settable int64 level (queue depth, running jobs, ...).
type Gauge struct{ v atomic.Int64 }

// Set stores v (nil-safe).
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Add moves the gauge by delta (nil-safe).
func (g *Gauge) Add(delta int64) {
	if g != nil {
		g.v.Add(delta)
	}
}

// Value returns the current level (0 on nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// histBounds are the histogram bucket upper bounds: a coarse exponential
// ladder from 1ms to 1min. Observations above the last bound land in the
// overflow bucket.
var histBounds = [...]time.Duration{
	1 * time.Millisecond, 2 * time.Millisecond, 5 * time.Millisecond,
	10 * time.Millisecond, 25 * time.Millisecond, 50 * time.Millisecond,
	100 * time.Millisecond, 250 * time.Millisecond, 500 * time.Millisecond,
	1 * time.Second, 2500 * time.Millisecond, 5 * time.Second,
	10 * time.Second, 30 * time.Second, time.Minute,
}

// Histogram accumulates durations into fixed exponential buckets plus a
// count and sum; all atomics, no locking on Observe.
type Histogram struct {
	buckets [len(histBounds) + 1]atomic.Int64 // +1: overflow
	count   atomic.Int64
	sumNs   atomic.Int64
}

// Observe records one duration (nil-safe; negative observations are
// dropped).
func (h *Histogram) Observe(d time.Duration) {
	if h == nil || d < 0 {
		return
	}
	i := sort.Search(len(histBounds), func(i int) bool { return d <= histBounds[i] })
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sumNs.Add(int64(d))
}

// Count returns the number of observations (0 on nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the total observed duration (0 on nil).
func (h *Histogram) Sum() time.Duration {
	if h == nil {
		return 0
	}
	return time.Duration(h.sumNs.Load())
}

// BucketCount is one non-empty histogram bucket: the count of
// observations at or below UpperSeconds (and above the previous bound).
// UpperSeconds <= 0 marks the overflow bucket.
type BucketCount struct {
	UpperSeconds float64 `json:"le_seconds"`
	Count        int64   `json:"count"`
}

// HistogramSnapshot is a histogram's point-in-time state.
type HistogramSnapshot struct {
	Count      int64         `json:"count"`
	SumSeconds float64       `json:"sum_seconds"`
	Buckets    []BucketCount `json:"buckets,omitempty"` // non-empty buckets only
}

// Snapshot is a registry's full point-in-time state, shaped for JSON.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]int64             `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Snapshot captures every instrument's current value. Nil receiver
// returns an empty (non-nil-map) snapshot.
func (r *Registry) Snapshot() Snapshot {
	snap := Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]int64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	if r == nil {
		return snap
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, c := range r.counters {
		snap.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		snap.Gauges[name] = g.Value()
	}
	for name, h := range r.hists {
		hs := HistogramSnapshot{Count: h.Count(), SumSeconds: h.Sum().Seconds()}
		for i := range h.buckets {
			n := h.buckets[i].Load()
			if n == 0 {
				continue
			}
			b := BucketCount{Count: n}
			if i < len(histBounds) {
				b.UpperSeconds = histBounds[i].Seconds()
			}
			hs.Buckets = append(hs.Buckets, b)
		}
		snap.Histograms[name] = hs
	}
	return snap
}
