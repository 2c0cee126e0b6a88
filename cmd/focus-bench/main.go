// Command focus-bench regenerates every table and figure of the paper's
// evaluation (§VI) against the synthetic data-set analogues D1-D3:
//
//	table1 — data set characteristics            (Table I)
//	fig4   — graph partitioning speedup curve    (Fig. 4)
//	fig5   — hybrid vs multilevel partitioning   (Fig. 5)
//	table2 — edge cut, hybrid vs overlap         (Table II)
//	fig6   — distributed trimming & traversal    (Fig. 6)
//	table3 — assembly statistics across k        (Table III)
//	fig7   — genus distribution across parts     (Fig. 7)
//
// Absolute times differ from the paper's cluster, but the shapes it
// reports (speedup knee, the ~2x hybrid advantage, cut ratios, stat
// stability, genus clustering) are reproduced; see EXPERIMENTS.md.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"focus"
	"focus/cmd/focus-bench/internal/debruijn"
	"focus/cmd/focus-bench/internal/greedyasm"
	"focus/internal/assembly"
	"focus/internal/dist"
	"focus/internal/eval"
	"focus/internal/metrics"
	"focus/internal/partition"
	"focus/internal/simulate"
	"focus/internal/taxonomy"
)

type harness struct {
	scale    float64
	coverage float64
	runs     int
	maxProcs int
	// cached per data set
	coms   map[int]*simulate.Community
	reads  map[int]*simulate.ReadSet
	stages map[int]*focus.Stages
}

func main() {
	var (
		exp        = flag.String("exp", "all", "experiment: table1|fig4|fig5|table2|fig6|table3|fig7|baselines|all")
		scale      = flag.Float64("scale", 0.35, "data set scale factor (1.0 = ~140kb communities)")
		coverage   = flag.Float64("coverage", 8, "read coverage")
		runs       = flag.Int("runs", 3, "repetitions for timed runs (Fig. 4)")
		maxProcs   = flag.Int("maxprocs", 12, "max processors in the Fig. 4 sweep")
		cpuProfile = flag.String("cpuprofile", "", "write a pprof CPU profile of the selected experiments to `file`")
		memProfile = flag.String("memprofile", "", "write a pprof heap profile (taken at exit) to `file`")
	)
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "focus-bench: -cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "focus-bench: -cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "focus-bench: -memprofile: %v\n", err)
			os.Exit(1)
		}
		defer func() {
			runtime.GC() // settle live heap before the snapshot
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "focus-bench: -memprofile: %v\n", err)
			}
			f.Close()
		}()
	}

	h := &harness{
		scale: *scale, coverage: *coverage, runs: *runs, maxProcs: *maxProcs,
		coms:   map[int]*simulate.Community{},
		reads:  map[int]*simulate.ReadSet{},
		stages: map[int]*focus.Stages{},
	}
	fmt.Printf("focus-bench: scale=%.2f coverage=%.1f GOMAXPROCS=%d\n\n", *scale, *coverage, runtime.GOMAXPROCS(0))

	run := func(name string, f func() error) {
		if *exp != "all" && *exp != name {
			return
		}
		t0 := time.Now()
		if err := f(); err != nil {
			fmt.Fprintf(os.Stderr, "focus-bench: %s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Printf("[%s completed in %s]\n\n", name, time.Since(t0).Round(time.Millisecond))
	}
	run("table1", h.table1)
	run("fig4", h.fig4)
	run("fig5", h.fig5)
	run("table2", h.table2)
	run("fig6", h.fig6)
	run("table3", h.table3)
	run("fig7", h.fig7)
	run("baselines", h.baselines)
}

// baselines contrasts Focus with the de Bruijn baseline on the same read
// sets, graded by the reference-based evaluator. Not a paper artifact —
// it quantifies the overlap-vs-de-Bruijn positioning of the paper's
// introduction. Runs only with -exp baselines or -exp all.
func (h *harness) baselines() error {
	t := &metrics.Table{
		Title:   "Baselines — Focus (overlap graph) vs de Bruijn on identical reads",
		Headers: []string{"Data set", "Assembler", "Time", "N50 (bp)", "Genome frac.", "Misasm."},
	}
	for id := 1; id <= 3; id++ {
		s, err := h.prepare(id)
		if err != nil {
			return err
		}
		var refs []eval.Reference
		for _, g := range h.coms[id].Genomes {
			refs = append(refs, eval.Reference{Name: g.ID, Seq: g.Seq})
		}
		grade := func(name string, contigs [][]byte, dt time.Duration) error {
			rep, err := eval.Evaluate(contigs, refs, eval.DefaultConfig())
			if err != nil {
				return err
			}
			st := assembly.ComputeStats(contigs)
			t.AddRow(fmt.Sprintf("D%d", id), name, dt, st.N50,
				fmt.Sprintf("%.1f%%", 100*rep.GenomeFraction), rep.Misassemblies)
			return nil
		}
		pool, err := dist.NewLocalPool(4, assembly.NewService)
		if err != nil {
			return err
		}
		t0 := time.Now()
		res, err := s.Assemble(pool, 8, 4, 1)
		focusTime := time.Since(t0)
		pool.Close()
		if err != nil {
			return err
		}
		if err := grade("focus", res.Contigs, focusTime); err != nil {
			return err
		}
		t0 = time.Now()
		dbContigs, err := debruijn.Assemble(s.Reads, debruijn.DefaultConfig())
		dbTime := time.Since(t0)
		if err != nil {
			return err
		}
		if err := grade("debruijn", dbContigs, dbTime); err != nil {
			return err
		}
		// Greedy reuses the already computed overlap records, so its time
		// reflects only the merge stage (alignment cost is shared).
		t0 = time.Now()
		grContigs := greedyasm.AssembleFromRecords(s.Reads, s.Records, greedyasm.DefaultConfig())
		grTime := time.Since(t0)
		if err := grade("greedy", grContigs, grTime); err != nil {
			return err
		}
	}
	t.Render(os.Stdout)
	return nil
}

// prepare builds (and caches) community, reads and pipeline stages for a
// data set.
func (h *harness) prepare(id int) (*focus.Stages, error) {
	if s, ok := h.stages[id]; ok {
		return s, nil
	}
	spec, err := simulate.PaperDataSet(id, h.scale)
	if err != nil {
		return nil, err
	}
	com, err := simulate.BuildCommunity(spec)
	if err != nil {
		return nil, err
	}
	rs, err := simulate.SimulateReads(com, simulate.PaperReadConfig(id, h.coverage))
	if err != nil {
		return nil, err
	}
	cfg := focus.DefaultConfig()
	cfg.Preprocess.Trim5 = 8 // the simulated adapter
	s, err := focus.BuildStages(rs.Reads, cfg)
	if err != nil {
		return nil, err
	}
	h.coms[id] = com
	h.reads[id] = rs
	h.stages[id] = s
	return s, nil
}

// table1 prints the data set characteristics (Table I analogue).
func (h *harness) table1() error {
	t := &metrics.Table{
		Title:   "Table I — data set characteristics (synthetic analogues of the paper's SRA runs)",
		Headers: []string{"Data set", "Stands in for", "Size (Mbases)", "Read length (bp)", "Reads", "Genomes"},
	}
	sra := []string{"SRR513170", "SRR513441", "SRR061581"}
	for id := 1; id <= 3; id++ {
		if _, err := h.prepare(id); err != nil {
			return err
		}
		rs := h.reads[id]
		t.AddRow(fmt.Sprintf("D%d", id), sra[id-1],
			fmt.Sprintf("%.3f", float64(rs.TotalBases())/1e6),
			100, len(rs.Reads), len(h.coms[id].Genomes))
	}
	t.Render(os.Stdout)
	return nil
}

// fig4 sweeps processor counts for hybrid-set partitioning with k=16.
// Per-region task times are measured once per run and projected onto 1..
// maxprocs processors with LPT scheduling (the algorithm's task graph is
// explicit: bisection steps are barriers with 2^i independent regions,
// then per-level k-way refinements). On a many-core host the projection
// tracks wall-clock; on this harness it reproduces the paper's cluster.
func (h *harness) fig4() error {
	fmt.Println("Fig. 4 — graph partitioning speedup (hybrid graph sets, k=16)")
	for id := 1; id <= 3; id++ {
		s, err := h.prepare(id)
		if err != nil {
			return err
		}
		// Average the task-time projections over h.runs random seeds
		// (the paper averages three runs for the same reason: greedy
		// growing's random seed nodes add variance).
		avg := make([]time.Duration, h.maxProcs)
		for r := 0; r < h.runs; r++ {
			res, _, err := s.PartitionHybrid(16, 1, int64(r+1))
			if err != nil {
				return err
			}
			for p := 1; p <= h.maxProcs; p++ {
				avg[p-1] += res.SimulatedMakespan(p)
			}
		}
		var times []time.Duration
		var xs []string
		for p := 1; p <= h.maxProcs; p++ {
			times = append(times, avg[p-1]/time.Duration(h.runs))
			xs = append(xs, fmt.Sprintf("%d procs", p))
		}
		sp := metrics.Speedup(times)
		fmt.Printf("\n  D%d (avg of %d runs; knee expected near 8 procs = 2^(log2 16 - 1)):\n", id, h.runs)
		metrics.Series(os.Stdout, "", "processors", "x speedup", xs, sp, 0)
	}
	return nil
}

// fig5 compares hybrid-set vs multilevel-set partitioning runtime.
func (h *harness) fig5() error {
	fmt.Println("Fig. 5 — hybrid graph set vs multilevel graph set partitioning runtime")
	t := &metrics.Table{Headers: []string{"Data set", "k", "procs", "Hybrid time", "Multilevel time", "Multilevel/Hybrid"}}
	for id := 1; id <= 3; id++ {
		s, err := h.prepare(id)
		if err != nil {
			return err
		}
		for _, k := range []int{8, 16, 32, 64} {
			procs := k / 2
			if procs > h.maxProcs {
				procs = h.maxProcs
			}
			_, ht, err := s.PartitionHybrid(k, procs, 1)
			if err != nil {
				return err
			}
			_, mt, err := s.PartitionMultilevel(k, procs, 1)
			if err != nil {
				return err
			}
			ratio := float64(mt) / float64(ht)
			t.AddRow(fmt.Sprintf("D%d", id), k, procs, ht, mt, ratio)
		}
	}
	t.Render(os.Stdout)
	return nil
}

// table2 compares the overlap-graph edge cut of partitionings produced
// via the hybrid set vs the multilevel set. Besides the paper's two
// columns it reports the multilevel solution rounded to cluster
// granularity (majority label per cluster): at the paper's data sizes a
// partition holds ~10^5 clusters and granularity never binds, but at
// laptop scale the multilevel baseline wins raw cut only by routing
// boundaries *through* read clusters — the rounded column shows the
// hybrid scheme is the better partitioner at matched granularity.
func (h *harness) table2() error {
	t := &metrics.Table{
		Title:   "Table II — edge cut on the overlap graph G0: hybrid-set vs multilevel-set partitioning",
		Headers: []string{"Part. Num", "Data set", "Edge Cut (Hyb.)", "Edge Cut (Ovl.)", "Ovl @cluster gran.", "Hyb better @gran.", "Cut % of total"},
	}
	for _, k := range []int{8, 16, 32, 64} {
		for id := 1; id <= 3; id++ {
			s, err := h.prepare(id)
			if err != nil {
				return err
			}
			procs := k / 2
			if procs > h.maxProcs {
				procs = h.maxProcs
			}
			hres, _, err := s.PartitionHybrid(k, procs, 1)
			if err != nil {
				return err
			}
			mres, _, err := s.PartitionMultilevel(k, procs, 1)
			if err != nil {
				return err
			}
			_, hybOnG0 := s.HybridCuts(hres)
			ml := mres.Labels()
			mCut := s.OverlapCut(ml)
			rounded := roundToClusters(s, ml)
			rCut := s.OverlapCut(partition.MapLabels(rounded, s.Hyb.RepOf))
			better := "no"
			if hybOnG0 <= rCut {
				better = "yes"
			}
			var total int64 // G0's total edge weight: every record's Len
			for _, r := range s.Records {
				total += int64(r.Len)
			}
			pct := 100 * float64(hybOnG0) / float64(total)
			t.AddRow(k, id, hybOnG0, mCut, rCut, better, fmt.Sprintf("%.3f%%", pct))
		}
	}
	t.Render(os.Stdout)
	return nil
}

// roundToClusters assigns each hybrid cluster the majority read label of
// a read-granularity partitioning.
func roundToClusters(s *focus.Stages, readLabels []int32) []int32 {
	votes := make([]map[int32]int, s.Hyb.G.NumNodes())
	for i := range votes {
		votes[i] = map[int32]int{}
	}
	for r, rep := range s.Hyb.RepOf {
		votes[rep][readLabels[r]]++
	}
	out := make([]int32, len(votes))
	for c, vs := range votes {
		best, bn := int32(0), -1
		for l, n := range vs {
			if n > bn || (n == bn && l < best) {
				best, bn = l, n
			}
		}
		out[c] = best
	}
	return out
}

// fig6 measures distributed trimming and traversal runtimes across
// partition counts.
func (h *harness) fig6() error {
	fmt.Println("Fig. 6 — distributed graph trimming and traversal runtimes")
	fmt.Println("(per-partition task times measured over RPC, projected onto k workers — one per partition, as on the paper's cluster)")
	t := &metrics.Table{Headers: []string{"Data set", "Partitions", "Trimming", "Traversal", "Trim (wall)", "Trav (wall)"}}
	for id := 1; id <= 3; id++ {
		s, err := h.prepare(id)
		if err != nil {
			return err
		}
		for _, k := range []int{8, 16, 32, 64} {
			workers := k
			if workers > 2*runtime.GOMAXPROCS(0) {
				workers = 2 * runtime.GOMAXPROCS(0)
			}
			pool, err := dist.NewLocalPool(workers, assembly.NewService)
			if err != nil {
				return err
			}
			res, err := s.Assemble(pool, k, workers, 1)
			pool.Close()
			if err != nil {
				return err
			}
			t.AddRow(fmt.Sprintf("D%d", id), k, res.SimTrimTime(k), res.SimTraverseTime(k), res.TrimTime, res.TraverseTime)
		}
	}
	t.Render(os.Stdout)
	return nil
}

// table3 reports assembly statistics across partitionings, extended with
// reference-based accuracy (genome fraction and misassemblies via
// internal/eval — the paper reports only contiguity).
func (h *harness) table3() error {
	t := &metrics.Table{
		Title:   "Table III — assembly statistics across partition counts",
		Headers: []string{"Data set", "Part. Num.", "N50 (bp)", "Max Contig (bp)", "Num. of Contigs", "Genome frac.", "Misasm."},
	}
	for id := 1; id <= 3; id++ {
		s, err := h.prepare(id)
		if err != nil {
			return err
		}
		var refs []eval.Reference
		for _, g := range h.coms[id].Genomes {
			refs = append(refs, eval.Reference{Name: g.ID, Seq: g.Seq})
		}
		for _, k := range []int{4, 16, 32, 64} {
			workers := 4
			pool, err := dist.NewLocalPool(workers, assembly.NewService)
			if err != nil {
				return err
			}
			res, err := s.Assemble(pool, k, workers, 1)
			pool.Close()
			if err != nil {
				return err
			}
			rep, err := eval.Evaluate(res.Contigs, refs, eval.DefaultConfig())
			if err != nil {
				return err
			}
			t.AddRow(id, k, res.Stats.N50, res.Stats.MaxContig, res.Stats.NumContigs,
				fmt.Sprintf("%.1f%%", 100*rep.GenomeFraction), rep.Misassemblies)
		}
	}
	t.Render(os.Stdout)
	return nil
}

// fig7 renders the genus-by-partition heat maps.
func (h *harness) fig7() error {
	fmt.Println("Fig. 7 — distribution of major genera across a 16-partitioning")
	for id := 1; id <= 3; id++ {
		s, err := h.prepare(id)
		if err != nil {
			return err
		}
		com := h.coms[id]
		var refs []taxonomy.Reference
		for _, g := range com.Genomes {
			refs = append(refs, taxonomy.Reference{Name: g.ID, Genus: g.Genus, Phylum: g.Phylum, Seq: g.Seq})
		}
		cls, err := taxonomy.NewClassifier(refs, 21)
		if err != nil {
			return err
		}
		res, _, err := s.PartitionHybrid(16, 8, 1)
		if err != nil {
			return err
		}
		labels := s.ReadLabels(res)
		d, err := taxonomy.GenusDistribution(cls, s.Reads, labels, 16)
		if err != nil {
			return err
		}
		top := d.TopGenera(10)
		var names []string
		frac := d.Fraction()
		var rows [][]float64
		for _, g := range top {
			names = append(names, fmt.Sprintf("%s (%s)", d.Genera[g], d.Phyla[g]))
			rows = append(rows, frac[g])
		}
		fmt.Printf("\n  D%d:\n", id)
		metrics.Heatmap(os.Stdout, "", names, rows)
		same, diff := d.PhylumCohesion()
		fmt.Printf("  phylum cohesion: same-phylum cosine %.3f vs cross-phylum %.3f\n", same, diff)
	}
	return nil
}
