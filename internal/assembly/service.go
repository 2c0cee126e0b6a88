package assembly

import (
	"fmt"
	"sync"

	"focus/internal/dist"
	"focus/internal/overlap"
)

// Service is the RPC service workers host (registered under
// dist.ServiceName). Scan is the stateless protocol: each call carries
// one partition's subgraph and names the phase to run on it. The
// Load/Phase/Unload trio implements the stateful protocol of stateful.go,
// where workers retain their partition and phases ship only removal
// deltas. Both run the phase through scanPhase, as does the master's
// local fallback.
type Service struct {
	once sync.Once
	st   *state
}

// ScanArgs carries one partition's subgraph, the phase to run on it and
// the configs the phases read (Cfg for the trimming phases and Paths, VCfg
// for Variants).
type ScanArgs struct {
	Phase string // "Transitive" | "Containment" | "Errors" | "Paths" | "Variants"
	Sub   Subgraph
	Cfg   Config
	VCfg  VariantConfig
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

// Scan runs one phase on the partition the call carries.
func (s *Service) Scan(args *ScanArgs, reply *PhaseReply) error {
	var err error
	*reply, err = scanPhase(args.Phase, &args.Sub, args.Cfg, args.VCfg)
	return err
}

// Ping verifies worker liveness: the pool's reconnect loop and the
// focus-worker -healthcheck probe call it (dist.HealthCheck).
func (s *Service) Ping(args *dist.Ack, reply *dist.Ack) error {
	*reply = true
	return nil
}

// AlignPair runs one distributed read-alignment job (paper §II.B: subset
// pairs are sent to different processors). The overlap package provides
// both the wire types and the computation; this method just exposes them
// on the worker service.
func (s *Service) AlignPair(args *overlap.AlignPairArgs, reply *overlap.AlignPairReply) error {
	var err error
	reply.Records, err = overlap.AlignPair(args)
	return err
}

// NewService is the factory handed to dist.NewLocalPool.
func NewService() interface{} { return &Service{} }
