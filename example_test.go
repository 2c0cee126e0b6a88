package focus_test

import (
	"fmt"

	"focus"
	"focus/internal/simulate"
)

// ExampleAssemble runs the complete pipeline — preprocessing, parallel
// overlap alignment, multilevel + hybrid graph construction, partitioning
// and the distributed trimming/traversal phases — on a simulated read set.
func ExampleAssemble() {
	com, err := simulate.BuildCommunity(simulate.SingleGenome("doc", 6000, 1))
	if err != nil {
		panic(err)
	}
	rs, err := simulate.SimulateReads(com, simulate.ReadConfig{ReadLen: 100, Coverage: 10, Seed: 2})
	if err != nil {
		panic(err)
	}

	res, stages, err := focus.Assemble(rs.Reads, focus.DefaultConfig(), 2, 2)
	if err != nil {
		panic(err)
	}
	fmt.Println("graph levels:", len(stages.Hyb.Set.Levels) > 1)
	fmt.Println("contigs:", res.Stats.NumContigs > 0)
	fmt.Println("assembled bases >= genome:", res.Stats.TotalBases >= 6000)
	// Output:
	// graph levels: true
	// contigs: true
	// assembled bases >= genome: true
}

// ExampleBuildStages shows staged use of the pipeline: build the graphs
// once, then partition the hybrid graph set and inspect the edge cut.
func ExampleBuildStages() {
	com, err := simulate.BuildCommunity(simulate.SingleGenome("doc2", 6000, 3))
	if err != nil {
		panic(err)
	}
	rs, err := simulate.SimulateReads(com, simulate.ReadConfig{ReadLen: 100, Coverage: 10, Seed: 4})
	if err != nil {
		panic(err)
	}

	stages, err := focus.BuildStages(rs.Reads, focus.DefaultConfig())
	if err != nil {
		panic(err)
	}
	res, _, err := stages.PartitionHybrid(4, 2, 1)
	if err != nil {
		panic(err)
	}
	hybridCut, overlapCut := stages.HybridCuts(res)
	fmt.Println("cuts equal under projection:", hybridCut == overlapCut)
	fmt.Println("labels cover all reads:", len(stages.ReadLabels(res)) == len(stages.Reads))
	// Output:
	// cuts equal under projection: true
	// labels cover all reads: true
}
