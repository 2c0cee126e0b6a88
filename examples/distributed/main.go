// Distributed: start real TCP RPC workers (the same service that
// cmd/focus-worker daemonizes), connect a pool to them, and run the
// distributed trimming and traversal phases against them — the paper's
// master/worker model over sockets instead of MPI ranks. Read alignment
// runs on the master's cores, as in cmd/focus and focus-serve: its
// subset pairs are spread over the master's goroutines, not the workers.
//
//	go run ./examples/distributed
package main

import (
	"fmt"
	"log"
	"net"

	"focus"
	"focus/internal/assembly"
	"focus/internal/dist"
	"focus/internal/simulate"
)

func main() {
	// 1. Start three workers on loopback TCP ports (in production these
	// are `focus-worker -listen ...` processes on other machines).
	var addrs []string
	for i := 0; i < 3; i++ {
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		defer lis.Close()
		srv, err := dist.NewServer(&assembly.Service{})
		if err != nil {
			log.Fatal(err)
		}
		go func() { _ = srv.Serve(lis) }()
		addrs = append(addrs, lis.Addr().String())
	}
	fmt.Printf("started %d TCP workers: %v\n", len(addrs), addrs)

	// 2. Simulate reads and connect the master's pool.
	com, err := simulate.BuildCommunity(simulate.SingleGenome("dist-demo", 15_000, 21))
	if err != nil {
		log.Fatal(err)
	}
	rs, err := simulate.SimulateReads(com, simulate.ReadConfig{
		ReadLen: 100, Coverage: 10, ErrorRate5: 0.001, ErrorRate3: 0.008, Seed: 22,
	})
	if err != nil {
		log.Fatal(err)
	}
	pool, err := dist.DialPool(addrs)
	if err != nil {
		log.Fatal(err)
	}
	defer pool.Close()

	// 3. Alignment on the master's cores, then the graph phases on the
	// TCP workers.
	stages, err := focus.BuildStages(rs.Reads, focus.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("alignment: %d overlaps in %s\n",
		len(stages.Records), stages.Timings["overlap"].Round(1e6))
	res, err := stages.Assemble(pool, 8, pool.Size(), 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("hybrid graph: %d nodes over 8 partitions on %d workers\n",
		stages.Hyb.G.NumNodes(), pool.Size())
	fmt.Printf("trim: %s (tasks: %d+%d+%d), traversal: %s\n",
		res.TrimTime.Round(1e6),
		len(res.Trim.PhaseTaskTimes[0]), len(res.Trim.PhaseTaskTimes[1]), len(res.Trim.PhaseTaskTimes[2]),
		res.TraverseTime.Round(1e6))
	fmt.Printf("assembly: %d contigs, N50 %d bp, max %d bp (genome %d bp)\n",
		res.Stats.NumContigs, res.Stats.N50, res.Stats.MaxContig, com.TotalBases())
}
