package assembly

import (
	"sync"

	"focus/internal/dist"
	"focus/internal/overlap"
)

// Service is the RPC service workers host (registered under
// dist.ServiceName). The per-phase methods (Transitive, Containment,
// Errors, Paths, Variants) are stateless — each call carries the
// partition subgraph. The Load/Phase/Unload trio implements the stateful
// protocol of stateful.go, where workers retain their partition and
// phases ship only removal deltas.
type Service struct {
	once sync.Once
	st   *state
}

// PhaseArgs carries one partition's subgraph and the trimming config.
type PhaseArgs struct {
	Sub Subgraph
	Cfg Config
}

// EdgeReply returns edges recorded for removal.
type EdgeReply struct{ Edges []EdgePair }

// RemovalReply returns nodes and edges recorded for removal.
type RemovalReply struct{ Removal Removal }

// PathsReply returns the partition-local maximal sub-paths.
type PathsReply struct{ Paths [][]int32 }

// Transitive runs transitive edge detection on the partition (paper §V.A).
func (s *Service) Transitive(args *PhaseArgs, reply *EdgeReply) error {
	reply.Edges = TransitiveEdges(&args.Sub, args.Cfg)
	return nil
}

// Containment runs containment and false-positive-edge detection (§V.B).
func (s *Service) Containment(args *PhaseArgs, reply *RemovalReply) error {
	reply.Removal = ContainmentScan(&args.Sub, args.Cfg)
	return nil
}

// Errors runs dead-end and bubble detection (§V.C).
func (s *Service) Errors(args *PhaseArgs, reply *RemovalReply) error {
	reply.Removal = ErrorScan(&args.Sub, args.Cfg)
	return nil
}

// Paths extracts partition-local maximal paths (§V.D).
func (s *Service) Paths(args *PhaseArgs, reply *PathsReply) error {
	reply.Paths = ExtractPaths(&args.Sub, args.Cfg)
	return nil
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
