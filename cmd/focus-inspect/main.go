// Command focus-inspect builds the Focus graph stages for a read set and
// prints structural statistics: overlap-graph degree distribution and
// connected components, multilevel coarsening profile, hybrid-graph
// cluster sizes and representative levels. It is the analysis side of
// Focus — the paper's thesis is that the distributed graph is itself an
// object of study (e.g. its partitions expose community structure), not
// just an assembly intermediate.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"focus"
	"focus/internal/dna"
	"focus/internal/graph"
	"focus/internal/graphio"
	"focus/internal/metrics"
)

func main() {
	var (
		in    = flag.String("in", "", "input reads (.fastq or .fasta)")
		trim5 = flag.Int("trim5", 0, "fixed 5' trim length")
		dot   = flag.String("dot", "", "write the hybrid graph (colored by a 16-partitioning) as Graphviz DOT to this path")
	)
	flag.Parse()
	if *in == "" {
		fmt.Fprintln(os.Stderr, "focus-inspect: -in is required")
		os.Exit(2)
	}
	reads, err := dna.ReadsFromFile(*in)
	if err != nil {
		fatal(err)
	}

	cfg := focus.DefaultConfig()
	cfg.Preprocess.Trim5 = *trim5
	s, err := focus.BuildStages(reads, cfg)
	if err != nil {
		fatal(err)
	}

	fmt.Printf("== reads ==\n")
	fmt.Printf("input: %d, kept (incl. reverse complements): %d, dropped: %d, bases trimmed: %d\n",
		s.PreStats.Input, s.PreStats.Output, s.PreStats.Dropped, s.PreStats.BasesTrimmed)

	fmt.Printf("\n== overlap graph G0 ==\n")
	fmt.Printf("nodes: %d, edges: %d, total edge weight: %d\n",
		s.G0.NumNodes(), s.G0.NumEdges(), s.G0.TotalEdgeWeight())
	printDegreeHistogram(s.G0)
	comps := componentSizes(s.G0)
	fmt.Printf("connected components: %d (largest %d, singletons %d)\n",
		len(comps), comps[0], countOnes(comps))

	fmt.Printf("\n== multilevel graph set ==\n")
	t := &metrics.Table{Headers: []string{"level", "nodes", "edges", "edge weight"}}
	for i, g := range s.MSet.Levels {
		t.AddRow(i, g.NumNodes(), g.NumEdges(), g.TotalEdgeWeight())
	}
	t.Render(os.Stdout)

	fmt.Printf("\n== hybrid graph ==\n")
	fmt.Printf("nodes: %d, edges: %d (%.1fx reduction over G0)\n",
		s.Hyb.G.NumNodes(), s.Hyb.G.NumEdges(),
		float64(s.G0.NumNodes())/float64(s.Hyb.G.NumNodes()))
	levelCount := map[int]int{}
	var clusterSizes []int
	var contigLens []int
	for _, n := range s.Hyb.Nodes {
		levelCount[n.Level]++
		clusterSizes = append(clusterSizes, len(n.Members))
		contigLens = append(contigLens, len(n.Contig))
	}
	var levels []int
	for l := range levelCount {
		levels = append(levels, l)
	}
	sort.Ints(levels)
	fmt.Printf("representatives by selection level:\n")
	for _, l := range levels {
		fmt.Printf("  level %d: %d\n", l, levelCount[l])
	}
	sort.Sort(sort.Reverse(sort.IntSlice(clusterSizes)))
	sort.Sort(sort.Reverse(sort.IntSlice(contigLens)))
	fmt.Printf("cluster sizes: max %d, median %d reads\n", clusterSizes[0], clusterSizes[len(clusterSizes)/2])
	fmt.Printf("cluster contigs: max %d, median %d bp\n", contigLens[0], contigLens[len(contigLens)/2])
	fmt.Printf("\nstage timings:\n")
	for _, stage := range []string{"preprocess", "overlap", "graph", "coarsen", "hybrid", "digraph"} {
		fmt.Printf("  %-10s %s\n", stage, s.Timings[stage].Round(1e6))
	}

	if *dot != "" {
		var hlabels []int32
		if res, _, err := s.PartitionHybrid(16, 8, 1); err == nil {
			hlabels = res.Labels()
		}
		f, err := os.Create(*dot)
		if err != nil {
			fatal(err)
		}
		if err := graphio.WriteDOT(f, s.Hyb.G, hlabels, 20000); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("\nwrote hybrid graph DOT to %s\n", *dot)
	}
}

func printDegreeHistogram(g *graph.Graph) {
	buckets := []int{0, 1, 2, 4, 8, 16, 32, 64}
	counts := make([]int, len(buckets))
	for v := 0; v < g.NumNodes(); v++ {
		d := g.Degree(v)
		for i := len(buckets) - 1; i >= 0; i-- {
			if d >= buckets[i] {
				counts[i]++
				break
			}
		}
	}
	fmt.Printf("degree histogram:\n")
	for i, b := range buckets {
		label := fmt.Sprintf(">=%d", b)
		if i+1 < len(buckets) {
			label = fmt.Sprintf("%d-%d", b, buckets[i+1]-1)
		}
		fmt.Printf("  %-7s %d\n", label, counts[i])
	}
}

// componentSizes returns connected component sizes, descending.
func componentSizes(g *graph.Graph) []int {
	seen := make([]bool, g.NumNodes())
	var sizes []int
	for v := 0; v < g.NumNodes(); v++ {
		if seen[v] {
			continue
		}
		size := 0
		stack := []int{v}
		seen[v] = true
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			size++
			for _, a := range g.Adj(u) {
				if !seen[a.To] {
					seen[a.To] = true
					stack = append(stack, a.To)
				}
			}
		}
		sizes = append(sizes, size)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(sizes)))
	return sizes
}

func countOnes(sizes []int) int {
	n := 0
	for _, s := range sizes {
		if s == 1 {
			n++
		}
	}
	return n
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "focus-inspect:", err)
	os.Exit(1)
}
