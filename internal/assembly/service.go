package assembly

import (
	"fmt"
	"sync"

	"focus/internal/dist"
	"focus/internal/overlap"
)

// Service is the RPC service workers host (registered under
// dist.ServiceName). The Load/Phase/Unload trio is the assembly protocol
// of stateful.go: a worker retains its partitions and each phase ships
// only the removals they store. Phase runs its scan through scanPhase, as
// does the master's local fallback.
type Service struct {
	once sync.Once
	st   *state
}

// PhaseReply carries whichever result the phase produces: Edges for
// Transitive, Removal for Containment and Errors, Paths for Paths,
// Variants for Variants.
type PhaseReply struct {
	Edges    []EdgePair
	Removal  Removal
	Paths    [][]int32
	Variants []Variant
}

// scanPhase runs the named phase on one partition subgraph. It is the only
// map from a phase name to its scan.
func scanPhase(phase string, sub *Subgraph, cfg Config, vcfg VariantConfig) (PhaseReply, error) {
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
	case "Variants": // §VI.D future work
		r.Variants = ScanVariants(sub, vcfg)
	default:
		return r, fmt.Errorf("assembly: unknown phase %q", phase)
	}
	return r, nil
}

// Ping verifies worker liveness: the pool's reconnect loop and the
// focus-worker -healthcheck probe call it (dist.HealthCheck).
func (s *Service) Ping(args *dist.Ack, reply *dist.Ack) error {
	*reply = true
	return nil
}

// AlignRef runs one distributed read-alignment job (paper §II.B: subset
// pairs are sent to different processors): one reference subset indexed
// once and queried by a run of subsets. The overlap package provides both
// the wire types and the computation; this method just exposes them on
// the worker service.
func (s *Service) AlignRef(args *overlap.AlignRefArgs, reply *overlap.AlignRefReply) error {
	var err error
	reply.Lists, err = overlap.AlignRef(args)
	return err
}

// NewService is the factory handed to dist.NewLocalPool.
func NewService() interface{} { return &Service{} }
