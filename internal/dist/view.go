package dist

import (
	"encoding/json"
	"fmt"
)

// Fleet sharing (DESIGN.md §15): a resident master multiplexes many
// concurrent assembly jobs onto one worker fleet. Each job gets a View, a
// member mask over the fleet's slots that says where the job may run, and
// each run opens a Session of it: connections of its own, which hold the
// run's worker state. Slot health, eviction and the fault counters are
// fleet state, and Health() is the fleet's scrapeable health snapshot.

// View returns a handle onto the fleet that schedules only onto the
// given member worker ids; it holds nothing to close. Worker ids stay
// fleet-global: view.Healthy(3) asks about fleet worker 3, whether or not
// it is a member (non-members are simply never healthy from the view).
// A view's ids are checked against the fleet, also when it is opened
// from another view.
func (p *Pool) View(ids []int) (*Pool, error) {
	if len(ids) == 0 {
		return nil, fmt.Errorf("dist: view needs at least one worker")
	}
	mask := make([]bool, len(p.slots))
	for _, id := range ids {
		if id < 0 || id >= len(p.slots) {
			return nil, fmt.Errorf("dist: view worker %d outside [0,%d)", id, len(p.slots))
		}
		if mask[id] {
			return nil, fmt.Errorf("dist: duplicate worker %d in view", id)
		}
		mask[id] = true
	}
	return &Pool{fleet: p.fleet, parent: p, mask: mask}, nil
}

// WorkerState is a worker's position in the health lifecycle.
type WorkerState int

const (
	// WorkerLive: schedulable; sessions dial and call it.
	WorkerLive WorkerState = iota
	// WorkerReconnecting: a session's connection to it failed and the
	// fleet probes it in the background; not schedulable until a probe
	// is answered.
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
	// ConsecutiveFails is the number of failed probes in the worker's
	// current outage: 0 while it reads live, and 0 when a session's
	// failure has just marked it reconnecting and no probe has run yet.
	ConsecutiveFails int `json:"consecutive_fails"`
}

// HealthSnapshot is a point-in-time view of the fleet (or of a view's
// member subset): per-worker state plus the fleet-wide fault counters.
// It is advisory — workers change state concurrently — but that is all an
// operational surface needs.
type HealthSnapshot struct {
	Workers []WorkerHealth `json:"workers"`
	Healthy int            `json:"healthy"`
	// Evictions and Reconnects are fleet-lifetime totals (identical from
	// any handle): workers evicted, and session connections redialed
	// after a cut, so one outage that one session comes back from counts
	// once. Completions is per handle: the calls of the sessions opened
	// from it, the root's the whole fleet's.
	Evictions  int64 `json:"evictions"`
	Reconnects int64 `json:"reconnects"`
	// Kicks always reads 0: nothing severs a worker on a supervisor's
	// say-so any more (the liveness rule cuts calls as timeouts). It stays
	// only because the frozen benchmark harness reads it; the next
	// benchmark change deletes it.
	Kicks       int64 `json:"kicks"`
	Completions int64 `json:"completions"`
}

// Health snapshots the member slots' health and the fleet's fault
// counters.
func (p *Pool) Health() HealthSnapshot {
	snap := HealthSnapshot{
		Evictions:   p.evictions.Load(),
		Reconnects:  p.reconnects.Load(),
		Completions: p.completions.Load(),
	}
	for _, s := range p.slots {
		if !p.allowed(s.id) {
			continue
		}
		s.mu.Lock()
		wh := WorkerHealth{ID: s.id, State: s.state, ConsecutiveFails: s.fails}
		s.mu.Unlock()
		if wh.State == WorkerLive {
			snap.Healthy++
		}
		snap.Workers = append(snap.Workers, wh)
	}
	return snap
}
