// Package preprocess implements the Focus read preprocessing stage
// (paper §II.A): fixed-length 5'/3' end trimming, sliding-window quality
// trimming from the 3' end and reverse-complement augmentation of the
// read set. The overlap stage cuts the result into subsets itself.
package preprocess

import (
	"fmt"

	"focus/internal/dna"
)

// RCSuffix is appended to a read's ID to name its reverse complement in
// the augmented read set.
const RCSuffix = "~rc"

// Config controls preprocessing. Zero values disable the corresponding
// step, except Window/Step/MinQuality which act together (quality trimming
// runs only if Window > 0).
type Config struct {
	Trim5 int // fixed bases removed from the 5' end (adapters/tags)
	Trim3 int // fixed bases removed from the 3' end

	// Sliding-window quality trimming: a window of length Window slides
	// from the 3' end toward the 5' end in steps of Step. At the first
	// position where the window's mean Phred quality exceeds MinQuality,
	// the read is cut at the window's right end (everything 3' of it is
	// dropped). If no window qualifies the whole read is dropped.
	Window     int
	Step       int
	MinQuality float64

	MinLen     int  // reads shorter than this after trimming are dropped
	AddReverse bool // append the reverse complement of each kept read
}

// Stats reports what preprocessing did.
type Stats struct {
	Input        int // reads in
	Dropped      int // reads dropped (too short / all low quality)
	Kept         int // forward reads kept
	Output       int // total reads out (incl. reverse complements)
	BasesTrimmed int // bases removed by all trimming steps
}

// QualityTrim applies the sliding-window rule to a single read and returns
// the kept prefix length. The second result is false when no window meets
// the threshold (the read should be dropped).
func QualityTrim(r dna.Read, window, step int, minQ float64) (keep int, ok bool) {
	if window <= 0 || r.Qual == nil || len(r.Seq) < window {
		return len(r.Seq), true
	}
	if step <= 0 {
		step = 1
	}
	for right := len(r.Seq); right >= window; right -= step {
		sum := 0
		for i := right - window; i < right; i++ {
			sum += r.PhredQuality(i)
		}
		if float64(sum)/float64(window) > minQ {
			return right, true
		}
	}
	return 0, false
}

// Run preprocesses the read set per the config. Reads are deep-copied; the
// input slice is not modified.
//
// Run is the pipeline's ingestion gate: every read is validated before any
// trimming, so malformed programmatic input (the file readers validate on
// parse, but API callers can hand Run anything) fails loudly with the read
// index and ID instead of corrupting the overlap stage downstream.
func Run(reads []dna.Read, cfg Config) ([]dna.Read, Stats, error) {
	if cfg.Trim5 < 0 || cfg.Trim3 < 0 {
		return nil, Stats{}, fmt.Errorf("preprocess: negative trim lengths")
	}
	st := Stats{Input: len(reads)}
	out := make([]dna.Read, 0, len(reads)*2)
	for i, r := range reads {
		if err := dna.ValidateSeq(r.Seq); err != nil {
			return nil, Stats{}, fmt.Errorf("preprocess: read %d (%q): %w", i, r.ID, err)
		}
		if r.Qual != nil && len(r.Qual) != len(r.Seq) {
			return nil, Stats{}, fmt.Errorf("preprocess: read %d (%q): quality length %d != sequence length %d",
				i, r.ID, len(r.Qual), len(r.Seq))
		}
		orig := r.Len()
		// Fixed end trimming.
		if cfg.Trim5+cfg.Trim3 >= r.Len() {
			st.Dropped++
			st.BasesTrimmed += orig
			continue
		}
		t := dna.Read{
			ID:  r.ID,
			Seq: append([]byte(nil), r.Seq[cfg.Trim5:r.Len()-cfg.Trim3]...),
		}
		if r.Qual != nil {
			t.Qual = append([]byte(nil), r.Qual[cfg.Trim5:len(r.Qual)-cfg.Trim3]...)
		}
		// Quality trimming from the 3' end.
		if cfg.Window > 0 {
			keep, ok := QualityTrim(t, cfg.Window, cfg.Step, cfg.MinQuality)
			if !ok {
				st.Dropped++
				st.BasesTrimmed += orig
				continue
			}
			t.Seq = t.Seq[:keep]
			if t.Qual != nil {
				t.Qual = t.Qual[:keep]
			}
		}
		if t.Len() < cfg.MinLen || t.Len() == 0 {
			st.Dropped++
			st.BasesTrimmed += orig
			continue
		}
		st.BasesTrimmed += orig - t.Len()
		st.Kept++
		out = append(out, t)
		if cfg.AddReverse {
			rc := dna.Read{ID: t.ID + RCSuffix, Seq: dna.ReverseComplement(t.Seq)}
			if t.Qual != nil {
				rc.Qual = make([]byte, len(t.Qual))
				for i, q := range t.Qual {
					rc.Qual[len(t.Qual)-1-i] = q
				}
			}
			out = append(out, rc)
		}
	}
	st.Output = len(out)
	return out, st, nil
}
