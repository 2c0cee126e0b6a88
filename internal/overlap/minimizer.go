package overlap

import "focus/internal/dna"

// Seeding selects how query k-mers are sampled before index lookup.
type Seeding uint8

const (
	// SeedStep samples every Step-th k-mer (the default; simple but two
	// reads can miss each other's sample grid).
	SeedStep Seeding = iota
	// SeedMinimizer samples (w,k)-minimizers: the minimal (hashed) k-mer
	// of every window of w consecutive k-mers. Any two reads sharing an
	// exact stretch of w+k-1 bases are guaranteed to share a seed, with
	// ~2/(w+1) of positions sampled — usually fewer lookups than stepped
	// sampling at equal or better recall.
	SeedMinimizer
)

// mixKmer decorrelates k-mer values from sequence content (otherwise
// poly-A k-mers would win every window). Invertible 64-bit mix
// (splitmix64 finalizer).
func mixKmer(v uint64) uint64 {
	v ^= v >> 30
	v *= 0xbf58476d1ce4e5b9
	v ^= v >> 27
	v *= 0x94d049bb133111eb
	v ^= v >> 31
	return v
}

// minimKm is one hashed k-mer occurrence considered for minimizer
// selection.
type minimKm struct {
	off  int
	hash uint64
}

// appendMinimizerOffsets computes the sorted distinct offsets of the
// (w,k)-minimizers of seq into sc.seedOffs (reusing sc.minimKms as the
// hash staging buffer) and returns the offsets slice, which is valid until
// the scratch's next query. Windows containing N are handled by the k-mer
// enumerator (N-spanning k-mers never become minimizers).
func appendMinimizerOffsets(sc *scratch, seq []byte, k, w int) []int {
	if w < 1 {
		w = 1
	}
	sc.minimKms = sc.minimKms[:0]
	dna.ForEachKmer(seq, k, func(v dna.Kmer, off int) {
		sc.minimKms = append(sc.minimKms, minimKm{off: off, hash: mixKmer(uint64(v))})
	})
	kms := sc.minimKms
	sc.seedOffs = sc.seedOffs[:0]
	if len(kms) == 0 {
		return nil
	}
	out := sc.seedOffs
	last := -1
	// Sliding window minimum via simple scan: windows are short (w ~ 8),
	// so the O(n*w) scan beats a deque in practice at these sizes.
	for start := 0; start+w <= len(kms); start++ {
		min := start
		for j := start + 1; j < start+w; j++ {
			if kms[j].hash < kms[min].hash {
				min = j
			}
		}
		if kms[min].off != last {
			out = append(out, kms[min].off)
			last = kms[min].off
		}
	}
	if len(out) == 0 { // fewer than w k-mers: take the global minimum
		min := 0
		for j := 1; j < len(kms); j++ {
			if kms[j].hash < kms[min].hash {
				min = j
			}
		}
		out = append(out, kms[min].off)
	}
	sc.seedOffs = out
	return out
}

// minimizerOffsets is the allocating convenience wrapper used by tests.
func minimizerOffsets(seq []byte, k, w int) []int {
	var sc scratch
	return appendMinimizerOffsets(&sc, seq, k, w)
}

// seedOffsets returns the sorted query offsets to look up for one read
// under the configured seeding mode, staged in the scratch. Returns nil
// for SeedStep, which the caller implements inline (it needs no
// precomputation).
func seedOffsets(sc *scratch, seq []byte, cfg Config) []int {
	if cfg.Seeding != SeedMinimizer {
		return nil
	}
	w := cfg.MinimizerW
	if w <= 0 {
		w = 8
	}
	return appendMinimizerOffsets(sc, seq, cfg.K, w)
}

// sampleSeeds fills the scratch's probe batch with every sampled seed
// k-mer of one query read — the single definition of query-side sampling
// (Step grid or minimizers) — and returns it. sc stages the minimizer
// buffers; a cfg.Step <= 0 is treated as 1.
func sampleSeeds(sc *scratch, seq []byte, cfg Config) []probe {
	step := cfg.Step
	if step <= 0 {
		step = 1
	}
	selected := seedOffsets(sc, seq, cfg) // nil for SeedStep
	ps := sc.probes[:0]
	si := 0
	it := dna.NewKmerIter(seq, cfg.K)
	next := 0
	for {
		km, off, ok := it.Next()
		if !ok || (selected != nil && si == len(selected)) {
			break
		}
		if selected != nil {
			if off != selected[si] {
				continue
			}
			si++
		} else if off < next {
			continue
		}
		next = off + step
		ps = append(ps, probe{km: uint64(km), off: int32(off)})
	}
	sc.probes = ps
	return ps
}
