package assembly

import (
	"fmt"
	"sync"

	"focus/internal/dist"
)

// Service is the RPC service workers host (registered under
// dist.ServiceName). Load and Phase are the assembly protocol of
// stateful.go: a worker retains its partitions and each phase ships only
// the removals they store. Phase runs its scan through scanPhase, as does
// the master's local fallback. One Service serves one connection
// (dist.NewServer copies a zero prototype per connection, the in-process
// pool makes one per dial), so its partitions are that connection's, and
// closing the connection frees them.
type Service struct {
	mu    sync.Mutex
	parts map[int32]*Subgraph // by partition
}

// PhaseReply carries whichever result the phase produces: Edges for
// Transitive, Removal for Containment and Errors, Paths for Paths.
type PhaseReply struct {
	Edges   []EdgePair
	Removal Removal
	Paths   [][]int32
}

// scanPhase runs the named phase on one partition subgraph. It is the only
// map from a phase name to its scan.
func scanPhase(phase string, sub *Subgraph, cfg Config) (PhaseReply, error) {
	var r PhaseReply
	switch phase {
	case "Transitive": // §V.A
		r.Edges = transitiveEdges(sub, cfg, 0)
	case "Containment": // §V.B
		r.Removal = containmentScan(sub, cfg, 0)
	case "Errors": // §V.C
		r.Removal = errorScan(sub, cfg, 0)
	case "Paths": // §V.D
		r.Paths = ExtractPaths(sub, cfg)
	default:
		return r, fmt.Errorf("assembly: unknown phase %q", phase)
	}
	return r, nil
}

// Ping verifies worker liveness: the pool's probe of a down worker and
// the focus-worker -healthcheck probe call it (dist.HealthCheck), and a
// call in flight pings on its own connection (the liveness rule).
func (s *Service) Ping(args *dist.Ack, reply *dist.Ack) error {
	*reply = true
	return nil
}

// NewService is the factory handed to dist.NewLocalPool.
func NewService() interface{} { return &Service{} }
