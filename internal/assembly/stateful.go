package assembly

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"focus/internal/dist"
)

// This file is the worker side of the assembly protocol, the paper's MPI
// model of ranks that own their partitions (§V): each worker receives its
// partition once (Load) and every later phase sends only the removals
// that partition stores (graph mutations are monotone — trimming only
// deletes nodes and edges — so ghosts never need additions). The master
// side is Driver.runPhaseStateful; Driver.phaseDeltas splits the removals
// by partition.
//
// Epoch fencing (DESIGN.md §11): every Load carries a master-assigned,
// per-partition monotonically increasing epoch, and every Phase names the
// epoch it expects the stored partition to be at. A partition that was
// re-hosted after a worker failure gets a higher epoch on its new home, so
// (a) a Phase addressed to the old copy — on a worker that wedged and
// later recovered — is rejected instead of computing on stale state, and
// (b) a duplicate Load from an abandoned, timed-out attempt cannot roll a
// partition back to an older generation. Fencing errors are app-level
// (the worker is alive; its *state* is unusable), and net/rpc flattens
// app-level errors to strings, so detection is by sentinel substring.

const (
	// staleEpochMsg marks a Load/Phase whose epoch does not match the
	// worker's stored state. Matched by substring: rpc.ServerError erases
	// error types in transit.
	staleEpochMsg = "assembly: stale partition epoch"
	// notLoadedMsg marks a Phase addressed to a partition the worker does
	// not hold (never loaded, unloaded, or swept — e.g. a worker process
	// restart lost its in-memory state table).
	notLoadedMsg = "assembly: partition not loaded"
)

// IsRehostable reports whether an error from a stateful Load/Phase call
// means the addressed worker lacks usable state for the partition — the
// worker is alive but the partition must be re-hosted (re-Loaded at a
// fresh epoch) before phases can resume. Transport errors are NOT
// rehostable by this predicate (the caller handles those via
// dist.IsTransportError); only the two state sentinels match.
func IsRehostable(err error) bool {
	if err == nil {
		return false
	}
	msg := err.Error()
	return strings.Contains(msg, staleEpochMsg) || strings.Contains(msg, notLoadedMsg)
}

// storedPart is one partition retained on a worker between phases.
type storedPart struct {
	sub   Subgraph
	epoch int64
	touch time.Time // last Load/Phase, for the run-TTL sweep
}

// state is the worker-side session table. It lives on the Service value,
// so each worker (one Service instance per worker) has its own.
type state struct {
	mu    sync.Mutex
	parts map[string]*storedPart
}

func (s *Service) ensureState() *state {
	s.once.Do(func() {
		s.st = &state{parts: map[string]*storedPart{}}
	})
	return s.st
}

func partKey(runID string, part int32) string {
	return fmt.Sprintf("%s/%d", runID, part)
}

// LoadArgs ships a partition to be retained. Epoch is the partition's
// generation stamp: the worker rejects a Load that does not advance the
// epoch of an already-stored copy (a late duplicate from a timed-out
// attempt must not clobber a newer generation).
type LoadArgs struct {
	RunID string
	Sub   Subgraph
	Epoch int64
}

// LoadReply acknowledges a Load.
type LoadReply struct{ Nodes, Edges int }

// Load stores a partition for later delta-driven phases; each Phase call
// carries the trimming config its scan runs with.
func (s *Service) Load(args *LoadArgs, reply *LoadReply) error {
	st := s.ensureState()
	st.mu.Lock()
	defer st.mu.Unlock()
	key := partKey(args.RunID, args.Sub.Part)
	if old, ok := st.parts[key]; ok && args.Epoch <= old.epoch {
		return fmt.Errorf("%s: Load of partition %d of run %q at epoch %d rejected, stored epoch is %d",
			staleEpochMsg, args.Sub.Part, args.RunID, args.Epoch, old.epoch)
	}
	st.parts[key] = &storedPart{sub: args.Sub, epoch: args.Epoch, touch: time.Now()}
	reply.Nodes = len(args.Sub.Nodes)
	reply.Edges = len(args.Sub.Edges)
	return nil
}

// Delta is the set of removals applied to the global graph since the
// worker last saw its partition, restricted to the ones it stores.
type Delta struct {
	RemovedNodes []int32
	RemovedEdges []EdgePair
}

// PhaseArgs drives one phase against a stored partition, with the configs
// the phases read (Cfg for the trimming phases and Paths, VCfg for
// Variants). Epoch must equal
// the epoch of the stored copy the master believes this worker holds; a
// mismatch in either direction means master and worker disagree about the
// partition's generation and the call is rejected.
type PhaseArgs struct {
	RunID string
	Part  int32
	Phase string // "Transitive" | "Containment" | "Errors" | "Paths" | "Variants"
	Epoch int64
	Delta Delta
	Cfg   Config
	VCfg  VariantConfig
}

// applyDelta removes nodes/edges from a stored subgraph in place.
func applyDelta(sub *Subgraph, d Delta) {
	if len(d.RemovedNodes) == 0 && len(d.RemovedEdges) == 0 {
		return
	}
	dead := make(map[int32]bool, len(d.RemovedNodes))
	for _, v := range d.RemovedNodes {
		dead[v] = true
	}
	deadEdge := make(map[EdgePair]bool, len(d.RemovedEdges))
	for _, e := range d.RemovedEdges {
		deadEdge[e] = true
	}
	nodes := sub.Nodes[:0]
	for _, n := range sub.Nodes {
		if !dead[n.ID] {
			nodes = append(nodes, n)
		}
	}
	sub.Nodes = nodes
	local := sub.Local[:0]
	for _, id := range sub.Local {
		if !dead[id] {
			local = append(local, id)
		}
	}
	sub.Local = local
	edges := sub.Edges[:0]
	for _, e := range sub.Edges {
		if dead[e.From] || dead[e.To] || deadEdge[EdgePair{From: e.From, To: e.To}] {
			continue
		}
		edges = append(edges, e)
	}
	sub.Edges = edges
}

// Phase applies the delta to the stored partition and runs the requested
// phase on it.
func (s *Service) Phase(args *PhaseArgs, reply *PhaseReply) error {
	st := s.ensureState()
	st.mu.Lock()
	p, ok := st.parts[partKey(args.RunID, args.Part)]
	if ok && p.epoch != args.Epoch {
		stored := p.epoch
		st.mu.Unlock()
		return fmt.Errorf("%s: Phase %s of partition %d of run %q at epoch %d, stored epoch is %d",
			staleEpochMsg, args.Phase, args.Part, args.RunID, args.Epoch, stored)
	}
	if ok {
		p.touch = time.Now()
	}
	st.mu.Unlock()
	if !ok {
		return fmt.Errorf("%s: partition %d of run %q", notLoadedMsg, args.Part, args.RunID)
	}
	applyDelta(&p.sub, args.Delta)
	var err error
	*reply, err = scanPhase(args.Phase, &p.sub, args.Cfg, args.VCfg)
	return err
}

// UnloadArgs releases a run's partitions on a worker.
type UnloadArgs struct{ RunID string }

// Unload drops every stored partition of a run (call when the master is
// done, to free worker memory).
func (s *Service) Unload(args *UnloadArgs, reply *dist.Ack) error {
	st := s.ensureState()
	st.mu.Lock()
	defer st.mu.Unlock()
	prefix := args.RunID + "/"
	for k := range st.parts {
		if len(k) > len(prefix) && k[:len(prefix)] == prefix {
			delete(st.parts, k)
		}
	}
	*reply = true
	return nil
}

// StartRunTTL starts a background sweep that drops stored partitions not
// touched (Loaded or Phased) within ttl. Long-lived worker processes use
// it (focus-worker -run-ttl) so masters that die without Unloading do not
// leak partitions forever. The sweep stops when stop is closed; ttl <= 0
// is a no-op. A swept partition that a master still believes is resident
// surfaces as a not-loaded fencing error on its next Phase, which the
// master answers by re-hosting — the same path as a worker restart.
func (s *Service) StartRunTTL(ttl time.Duration, stop <-chan struct{}) {
	if ttl <= 0 {
		return
	}
	st := s.ensureState()
	go func() {
		interval := ttl / 4
		if interval < time.Second {
			interval = time.Second
		}
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for {
			select {
			case <-stop:
				return
			case <-ticker.C:
				cutoff := time.Now().Add(-ttl)
				st.mu.Lock()
				for k, p := range st.parts {
					if p.touch.Before(cutoff) {
						delete(st.parts, k)
					}
				}
				st.mu.Unlock()
			}
		}
	}()
}
