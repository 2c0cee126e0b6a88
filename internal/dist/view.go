package dist

import (
	"encoding/json"
	"fmt"
	"time"
)

// Fleet sharing (DESIGN.md §15): a resident master multiplexes many
// concurrent assembly jobs onto one worker fleet. Each job gets a View —
// a member mask over the fleet: a Pool handle that schedules only onto its
// member workers and keeps its own completion counter — while connection
// health, eviction, reconnection and the liveness rule's signs of life
// remain fleet state owned by the root pool. Health() is the fleet's
// scrapeable health snapshot.

// View returns a restricted handle onto the same fleet that schedules
// only onto the given member worker ids. Worker ids stay root-global:
// view.Healthy(3) asks about fleet worker 3, whether or not it is a
// member (non-members are simply never healthy from the view). Views of
// views must narrow: every id must be a member of p.
func (p *Pool) View(ids []int) (*Pool, error) {
	s := p.shared()
	if len(ids) == 0 {
		return nil, fmt.Errorf("dist: view needs at least one worker")
	}
	mask := make([]bool, len(s.workers))
	for _, id := range ids {
		if id < 0 || id >= len(s.workers) {
			return nil, fmt.Errorf("dist: view worker %d outside [0,%d)", id, len(s.workers))
		}
		if mask[id] {
			return nil, fmt.Errorf("dist: duplicate worker %d in view", id)
		}
		if !p.allowed(id) {
			return nil, fmt.Errorf("dist: view worker %d is not a member of the parent view", id)
		}
		mask[id] = true
	}
	return &Pool{opt: s.opt, workers: s.workers, root: s, mask: mask}, nil
}

// Members returns this handle's member worker ids in ascending order
// (every slot for a root pool), healthy or not.
func (p *Pool) Members() []int {
	ids := make([]int, 0, len(p.workers))
	for _, w := range p.workers {
		if p.allowed(w.id) {
			ids = append(ids, w.id)
		}
	}
	return ids
}

// WorkerState is a worker's position in the health lifecycle.
type WorkerState int

const (
	// WorkerLive: connected and schedulable.
	WorkerLive WorkerState = iota
	// WorkerReconnecting: connection severed, background reconnect in
	// flight; not schedulable until it succeeds.
	WorkerReconnecting
	// WorkerEvicted: permanently out of the schedulable set.
	WorkerEvicted
)

func (s WorkerState) String() string {
	switch s {
	case WorkerLive:
		return "live"
	case WorkerReconnecting:
		return "reconnecting"
	case WorkerEvicted:
		return "evicted"
	}
	return fmt.Sprintf("WorkerState(%d)", int(s))
}

// MarshalJSON renders the state as its string name (the status endpoint
// is read by humans and test scrapers, not by ordinal).
func (s WorkerState) MarshalJSON() ([]byte, error) {
	return json.Marshal(s.String())
}

// UnmarshalJSON parses the string rendering back, so scrapers can decode
// the same health documents the endpoint encodes.
func (s *WorkerState) UnmarshalJSON(b []byte) error {
	var name string
	if err := json.Unmarshal(b, &name); err != nil {
		return err
	}
	for cand := WorkerLive; cand <= WorkerEvicted; cand++ {
		if cand.String() == name {
			*s = cand
			return nil
		}
	}
	return fmt.Errorf("dist: unknown worker state %q", name)
}

// WorkerHealth is one worker's health snapshot.
type WorkerHealth struct {
	ID    int         `json:"id"`
	State WorkerState `json:"state"`
	// ConsecutiveFails is the current consecutive transport-failure count
	// (reset by any successful call).
	ConsecutiveFails int `json:"consecutive_fails"`
	// InFlight is the number of calls currently outstanding on the worker.
	InFlight int `json:"in_flight"`
	// CallRunningFor is how long the oldest in-flight call has been
	// running (0 when idle).
	CallRunningFor time.Duration `json:"call_running_for_ns"`
}

// HealthSnapshot is a point-in-time view of the fleet (or of a view's
// member subset): per-worker state plus the fleet-wide fault counters.
// It is advisory — workers change state concurrently — but that is all an
// operational surface needs.
type HealthSnapshot struct {
	Workers []WorkerHealth `json:"workers"`
	Healthy int            `json:"healthy"`
	// Evictions and Reconnects are fleet-lifetime totals (root counters,
	// identical from any view). Completions is per handle: a view reports
	// its own traffic, the root the whole fleet's.
	Evictions  int64 `json:"evictions"`
	Reconnects int64 `json:"reconnects"`
	// Kicks always reads 0: nothing severs a worker on a supervisor's
	// say-so any more (the liveness rule cuts calls as timeouts). It stays
	// only because the frozen benchmark harness reads it; the next
	// benchmark change deletes it.
	Kicks       int64 `json:"kicks"`
	Completions int64 `json:"completions"`
}

// Health snapshots the member workers' health state and the fleet's
// fault counters.
func (p *Pool) Health() HealthSnapshot {
	s := p.shared()
	snap := HealthSnapshot{
		Evictions:   s.evictions.Load(),
		Reconnects:  s.reconnects.Load(),
		Completions: p.completions.Load(),
	}
	now := time.Now().UnixNano()
	for _, w := range p.workers {
		if !p.allowed(w.id) {
			continue
		}
		wh := WorkerHealth{ID: w.id, InFlight: int(w.inflight.Load())}
		if start := w.callStart.Load(); start != 0 && now > start {
			wh.CallRunningFor = time.Duration(now - start)
		}
		w.mu.Lock()
		wh.ConsecutiveFails = w.fails
		switch {
		case w.evicted:
			wh.State = WorkerEvicted
		case w.client != nil:
			wh.State = WorkerLive
		default:
			wh.State = WorkerReconnecting
		}
		w.mu.Unlock()
		if wh.State == WorkerLive {
			snap.Healthy++
		}
		snap.Workers = append(snap.Workers, wh)
	}
	return snap
}
