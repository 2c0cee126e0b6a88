package assembly

import (
	"fmt"
	"strings"

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
// A worker keeps a run's partitions exactly as long as the run's own
// connection to it (DESIGN.md §11.1): every connection is served by its
// own Service, on a TCP focus-worker (dist.Server) as in process, and
// every run opens connections of its own (dist.Pool.Session), which
// Driver.Close closes. That is the only way worker state is freed. The
// master commits a placement only after a Load succeeded on the worker's
// current connection, and a call it abandons severs that connection, so a
// Phase finds the copy the master placed or nothing: a late Load lands in
// a severed connection's table, and a revived worker answers "not
// loaded".

// notLoadedMsg marks a Phase addressed to a partition the worker does not
// hold on this connection (never loaded, or loaded on an earlier one).
// Matched by substring: rpc.ServerError erases error types in transit.
const notLoadedMsg = "assembly: partition not loaded"

// IsRehostable reports whether an error from a Phase call means the
// addressed worker is alive but lacks the partition, which must be
// re-hosted (re-Loaded) before phases can resume. Transport errors are NOT
// rehostable by this predicate (the caller handles those via
// dist.IsTransportError).
func IsRehostable(err error) bool {
	return err != nil && strings.Contains(err.Error(), notLoadedMsg)
}

// LoadArgs ships a partition to be retained.
type LoadArgs struct {
	Sub Subgraph
}

// Load stores a partition for later delta-driven phases; each Phase call
// carries the trimming config its scan runs with.
func (s *Service) Load(args *LoadArgs, reply *dist.Ack) error {
	sub := args.Sub
	s.mu.Lock()
	if s.parts == nil {
		s.parts = map[int32]*Subgraph{}
	}
	s.parts[sub.Part] = &sub
	s.mu.Unlock()
	*reply = true
	return nil
}

// Delta is the set of removals applied to the global graph since the
// worker last saw its partition, restricted to the ones it stores.
type Delta struct {
	RemovedNodes []int32
	RemovedEdges []EdgePair
}

// PhaseArgs drives one phase against a stored partition, with the config
// the phases read.
type PhaseArgs struct {
	Part  int32
	Phase string // "Transitive" | "Containment" | "Errors" | "Paths"
	Delta Delta
	Cfg   Config
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
	s.mu.Lock()
	sub, ok := s.parts[args.Part]
	s.mu.Unlock()
	if !ok {
		return fmt.Errorf("%s: partition %d", notLoadedMsg, args.Part)
	}
	applyDelta(sub, args.Delta)
	var err error
	*reply, err = scanPhase(args.Phase, sub, args.Cfg)
	return err
}
