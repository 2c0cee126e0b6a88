package dist

import (
	"encoding/json"
	"fmt"
)

// Fleet sharing (DESIGN.md §15): a resident master multiplexes many
// concurrent assembly jobs onto one worker fleet. Each job gets a View, a
// member mask over the fleet that says where the job may run, and each
// run opens a Session of it: connections of its own, which hold the
// run's worker state. Eviction and the fault counters stay fleet state
// on the root, and a session's transport failure drops the fleet slot's
// connection until the fleet reconnects. Health() is the fleet's
// scrapeable health snapshot.

// View returns a restricted handle onto p's connections that schedules
// only onto the given member worker ids. Worker ids stay root-global:
// view.Healthy(3) asks about fleet worker 3, whether or not it is a
// member (non-members are simply never healthy from the view). Views of
// views must narrow: every id must be a member of p.
func (p *Pool) View(ids []int) (*Pool, error) {
	if len(ids) == 0 {
		return nil, fmt.Errorf("dist: view needs at least one worker")
	}
	mask := make([]bool, len(p.workers))
	for _, id := range ids {
		if id < 0 || id >= len(p.workers) {
			return nil, fmt.Errorf("dist: view worker %d outside [0,%d)", id, len(p.workers))
		}
		if mask[id] {
			return nil, fmt.Errorf("dist: duplicate worker %d in view", id)
		}
		if !p.allowed(id) {
			return nil, fmt.Errorf("dist: view worker %d is not a member of the parent view", id)
		}
		mask[id] = true
	}
	return &Pool{opt: p.opt, workers: p.workers, parent: p, mask: mask}, nil
}

// Session opens a handle with connections of its own to p's members,
// dialed and handshaken as the pool's are, under the same Options. A
// member whose fleet slot is evicted stays out; one that cannot be
// reached now is reconnected in the background. What a worker stores for
// the session's calls lives as long as these connections, so Close frees
// it, and a call the session severs touches no other session's. Worker
// ids stay fleet-global, the session's calls count in p's and the
// fleet's Completions, an eviction in it evicts the fleet's slot, and a
// transport failure in it severs the fleet slot's connection (see sever).
func (p *Pool) Session() *Pool {
	f := p.shared()
	s := newPool(f.opt)
	s.parent, s.mask = p, p.mask
	for i, fw := range f.workers {
		w := &worker{id: i, addr: fw.addr, newService: fw.newService, wrap: fw.wrap}
		s.workers = append(s.workers, w)
		fw.mu.Lock()
		w.evicted = fw.evicted
		fw.mu.Unlock()
		if w.evicted || !s.allowed(i) {
			continue
		}
		client, err := s.connectWorker(w)
		if err != nil {
			s.sever(w, nil, err, false)
			continue
		}
		w.client = client
	}
	// Registered only once whole, so the fleet's Close never races the
	// dials; a session of a closed fleet closes at once.
	f.spawnMu.Lock()
	open := !f.isClosed()
	if open {
		if f.sessions == nil {
			f.sessions = map[*Pool]bool{}
		}
		f.sessions[s] = true
	}
	f.spawnMu.Unlock()
	if !open {
		s.Close()
	}
	return s
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
}

// HealthSnapshot is a point-in-time view of the fleet (or of a handle's
// member subset): per-worker state plus the fleet-wide fault counters.
// It is advisory — workers change state concurrently — but that is all an
// operational surface needs.
type HealthSnapshot struct {
	Workers []WorkerHealth `json:"workers"`
	Healthy int            `json:"healthy"`
	// Evictions and Reconnects are fleet-lifetime totals (root counters,
	// identical from any handle). Completions is per handle: its own
	// traffic and its views' and sessions', the root's the whole fleet's.
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
	for _, w := range p.workers {
		if !p.allowed(w.id) {
			continue
		}
		wh := WorkerHealth{ID: w.id}
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
