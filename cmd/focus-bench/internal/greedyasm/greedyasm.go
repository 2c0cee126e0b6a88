// Package greedyasm is the classical greedy overlap-merge assembler
// (TIGR/phrap-style): detect pairwise overlaps, sort suffix-prefix
// overlaps by length, and merge greedily while each read end is unused.
// It is the second baseline (next to the de Bruijn assembler) against
// which the Focus hybrid-graph pipeline is compared: greedy assembly
// needs no graph partitioning but commits to merges that a graph method
// would reconsider, so it is fast but fragile around repeats.
package greedyasm

import (
	"sort"

	"focus/internal/align"
	"focus/internal/dna"
	"focus/internal/overlap"
)

// Config controls the baseline.
type Config struct {
	Overlap      overlap.Config
	Subsets      int
	MinContigLen int
}

// DefaultConfig mirrors the Focus overlap thresholds.
func DefaultConfig() Config {
	return Config{Overlap: overlap.DefaultConfig(), Subsets: 2, MinContigLen: 100}
}

// Assemble runs the greedy baseline over the (already preprocessed)
// reads.
func Assemble(reads []dna.Read, cfg Config) ([][]byte, error) {
	recs, err := overlap.FindOverlaps(reads, cfg.Subsets, cfg.Overlap)
	if err != nil {
		return nil, err
	}
	return assembleFromRecords(reads, recs, cfg), nil
}

// AssembleFromRecords reuses precomputed overlap records (so baseline
// comparisons do not re-pay alignment cost).
func AssembleFromRecords(reads []dna.Read, recs []overlap.Record, cfg Config) [][]byte {
	return assembleFromRecords(reads, recs, cfg)
}

func assembleFromRecords(reads []dna.Read, recs []overlap.Record, cfg Config) [][]byte {
	n := len(reads)
	contained := make([]bool, n)
	// Pass 1: discard contained reads (they add nothing to a greedy
	// layout).
	for _, r := range recs {
		switch r.Kind {
		case align.KindAContainsB:
			contained[r.B] = true
		case align.KindBContainsA:
			contained[r.A] = true
		}
	}

	// Pass 2: collect directed suffix-prefix overlaps between
	// non-contained reads, longest first.
	type dov struct {
		from, to int32
		len      int32
		diag     int32
	}
	var ovs []dov
	for _, r := range recs {
		if contained[r.A] || contained[r.B] {
			continue
		}
		switch r.Kind {
		case align.KindSuffixPrefix: // A precedes B
			ovs = append(ovs, dov{from: r.A, to: r.B, len: r.Len, diag: r.Diag})
		case align.KindPrefixSuffix: // B precedes A
			ovs = append(ovs, dov{from: r.B, to: r.A, len: r.Len, diag: -r.Diag})
		}
	}
	sort.Slice(ovs, func(i, j int) bool {
		if ovs[i].len != ovs[j].len {
			return ovs[i].len > ovs[j].len
		}
		if ovs[i].from != ovs[j].from {
			return ovs[i].from < ovs[j].from
		}
		return ovs[i].to < ovs[j].to
	})

	// Pass 3: greedy merging. Each read's right end and left end may be
	// used once; chains must not close into cycles.
	next := make([]int32, n)
	prev := make([]int32, n)
	diag := make([]int32, n) // diag[v] = offset of next[v] relative to v
	for i := range next {
		next[i] = -1
		prev[i] = -1
	}
	// chainOf finds the chain's head with path compression-lite.
	head := func(v int32) int32 {
		for prev[v] != -1 {
			v = prev[v]
		}
		return v
	}
	for _, o := range ovs {
		if next[o.from] != -1 || prev[o.to] != -1 {
			continue // ends already consumed
		}
		if head(o.from) == o.to {
			continue // would close a cycle
		}
		next[o.from] = o.to
		prev[o.to] = o.from
		diag[o.from] = o.diag
	}

	// Pass 4: render chains.
	var contigs [][]byte
	for v := int32(0); v < int32(n); v++ {
		if contained[v] || prev[v] != -1 {
			continue // not a chain head
		}
		contig := append([]byte(nil), reads[v].Seq...)
		pos := 0
		for cur := v; next[cur] != -1; cur = next[cur] {
			pos += int(diag[cur])
			nxt := reads[next[cur]].Seq
			if pos+len(nxt) <= len(contig) {
				continue
			}
			skip := len(contig) - pos
			if skip < 0 {
				skip = 0
			}
			contig = append(contig, nxt[skip:]...)
		}
		if len(contig) >= cfg.MinContigLen {
			contigs = append(contigs, contig)
		}
	}
	return contigs
}
