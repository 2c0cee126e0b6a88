// Quickstart: simulate a small genome, assemble it with the full Focus
// pipeline on an in-process worker pool, and print the contigs.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"focus"
	"focus/internal/simulate"
)

func main() {
	// 1. Simulate a 20 kb genome at 12x coverage with Illumina-like
	// errors (in a real run these come from FASTQ input instead).
	com, err := simulate.BuildCommunity(simulate.SingleGenome("demo", 20_000, 7))
	if err != nil {
		log.Fatal(err)
	}
	rs, err := simulate.SimulateReads(com, simulate.ReadConfig{
		ReadLen: 100, Coverage: 12,
		ErrorRate5: 0.001, ErrorRate3: 0.01,
		Seed: 8,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("simulated %d reads from a %d bp genome\n", len(rs.Reads), com.TotalBases())

	// 2. Assemble: 4 graph partitions on 2 RPC workers.
	cfg := focus.DefaultConfig()
	res, stages, err := focus.Assemble(rs.Reads, cfg, 4, 2)
	if err != nil {
		log.Fatal(err)
	}

	// 3. Report.
	fmt.Printf("overlap graph: %d reads, %d overlap records\n", len(stages.Reads), len(stages.Records))
	fmt.Printf("hybrid graph set: %d levels; hybrid graph: %d nodes\n",
		len(stages.Hyb.Set.Levels), stages.Hyb.G.NumNodes())
	fmt.Printf("trimming removed: %d transitive edges, %d contained nodes, %d false edges, %d tips/bubbles\n",
		res.Trim.TransitiveEdges, res.Trim.ContainedNodes, res.Trim.FalseEdges, res.Trim.DeadEndNodes)
	fmt.Printf("assembly: %d contigs, N50 %d bp, max contig %d bp (genome %d bp)\n",
		res.Stats.NumContigs, res.Stats.N50, res.Stats.MaxContig, com.TotalBases())
	for i, c := range res.Contigs {
		if len(c) >= 1000 {
			fmt.Printf("  contig %d: %d bp  %s...\n", i, len(c), c[:48])
		}
	}
}
