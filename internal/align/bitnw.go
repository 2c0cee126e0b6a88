// Bit-parallel banded Needleman–Wunsch.
//
// The scalar kernel walks the band cell by cell: ~W=2*band+1 dependent
// compare/branch chains per row. This kernel processes the whole band of
// one DP row as SWAR lanes inside two uint64 words — 8-bit lane c holds
// the score of column j = c + i - band, biased and re-anchored per row so
// the in-band score spread (bounded by (Match-Gap)*2*band, see
// bpEligible) always fits the lane. Per row it performs a constant number
// of word operations:
//
//	diag  = prev + Eq-driven per-lane add  (match/mismatch, no branches)
//	up    = prev laneshifted down one lane  - |Gap|
//	cand  = lanewise max(diag, up)          (diag wins ties)
//	left  = prefix relaxation s[c] = max_d cand[c-d] - d*|Gap|, run as a
//	        distance-doubling max-plus scan (lane shifts of 1, 2, 4, 8
//	        with decays |Gap|..8*|Gap|): every chain length 0..15 is a
//	        subset sum of the pass distances with exactly its decay, so
//	        a fixed number of passes equals the full relaxation — no
//	        data-dependent fixpoint loop
//
// Match/mismatch per lane comes from Myers-style Eq bitmasks: one
// 256-entry table of bitmasks over b, built per call into the Scratch and
// cleared lazily (only the rows of bytes the previous b touched), so
// arbitrary bytes — including 'N' and the '#' separator — compare exactly
// like the scalar byte compare.
//
// The traceback is not recomputed from scores: each row stores two
// direction bits per lane ("up strictly beats diag", "left strictly
// beats max(diag,up)") whose priority order reproduces the scalar
// kernel's tie-break contract
// exactly, so Score, Matches and Columns are bit-identical to the scalar
// DP on every input the kernel accepts. Inputs outside the envelope
// (wide bands, exotic scoring, range-guard trips) fall back to the scalar
// kernel, which is always exact. See DESIGN.md §12.
package align

import "math/bits"

const (
	// bpMaxBand bounds the band half-width: W = 2*band+1 <= 15 lanes, so
	// a whole row fits in two uint64 words.
	bpMaxBand = 7
	// bpNeg is the sentinel for out-of-band lanes. It is small enough to
	// lose every max against an in-band lane (bpEligible keeps in-band
	// values >= bpNeg+2) and large enough that the largest single lane
	// subtraction — the left-scan's 8-lane pass decays by 8*|Gap| <= 16 —
	// cannot borrow out of the lane.
	bpNeg = 16
	// bpBias is the lane value representing the per-row anchor score.
	bpBias = 64

	// Sentinel fills for the lanes the left scan shifts in (2- and 4-lane
	// passes).
	bpNeg2 = bpNeg | bpNeg<<8
	bpNeg4 = bpNeg2 | bpNeg2<<16

	bpLaneLSB = 0x0101010101010101
	bpLaneMSB = 0x8080808080808080
)

// bpPre[k] holds lanes 0..k-1 set to 0xFF across the two row words;
// the valid-lane mask of a row with columns [cLo, cHi] is
// bpPre[cHi+1] &^ bpPre[cLo].
var bpPre [17][2]uint64

func init() {
	for k := 1; k < len(bpPre); k++ {
		bpPre[k] = bpPre[k-1]
		if k <= 8 {
			bpPre[k][0] |= 0xFF << (8 * uint(k-1))
		} else {
			bpPre[k][1] |= 0xFF << (8 * uint(k-9))
		}
	}
}

func splat8(x uint64) uint64 { return x * bpLaneLSB }

// ge8 returns a lane mask (0xFF / 0x00 per 8-bit lane) of a >= b.
// Both operands must keep lane values < 0x80 (bpEligible guarantees it).
// Pure 1-cycle ALU ops: the kernel is bound by this chain's latency, so
// the multiply-widening variant measures slower despite fewer ops.
func ge8(a, b uint64) uint64 {
	h := ((a | bpLaneMSB) - b) & bpLaneMSB
	return (h - (h >> 7)) | h
}

// bpEligible reports whether the bit-parallel kernel's 8-bit lanes can
// represent every intermediate value exactly for this band and scoring.
// The in-band score spread after per-row re-anchoring is bounded by
// S = (Match-Gap)*2*band (adjacent in-band cells differ by at most
// Match-Gap, which requires Match >= 0 >= Gap); the gates keep
// bias - spread above the bpNeg sentinel and bias + spread + transients
// below 0x80. The default scoring (1,-1,-2) is eligible for band <= 7.
func bpEligible(band int, sc Scoring) bool {
	if band > bpMaxBand {
		return false
	}
	M, X, G := sc.Match, sc.Mismatch, sc.Gap
	if M < 0 || M > 8 || X > 0 || X < -8 || G >= 0 || G < -8 {
		return false
	}
	K := M - G
	S := 2 * band * K
	if S+K+(-G)+M > 44 {
		return false
	}
	if S+K+(M-X) > 52 {
		return false
	}
	// The left scan's largest pass shifts sigma lanes and decays by
	// sigma*|Gap|; passes 1..sigma cover chain lengths up to 2*sigma-1, so
	// sigma is the smallest power of two > band. That largest decay must
	// not borrow below zero out of a bpNeg sentinel lane.
	sigma := 1
	for sigma <= band {
		sigma <<= 1
	}
	return sigma*(-G) <= bpNeg
}

// bpBuildEq (re)builds the per-byte Eq masks over b: bit j of row ch is
// set iff b[j] == ch. Rows live in a flat 256 x eqStride arena inside the
// Scratch; only rows touched by the previous call are cleared, so the
// build is O(len(b) + distinct bytes of the previous b).
func (scr *Scratch) bpBuildEq(b []byte) {
	stride := (len(b) + 63) >> 6
	if stride > scr.eqStride {
		scr.eqStride = stride
		// One pad word past the arena: the kernel's match-bit extraction
		// reads one word beyond bpos unconditionally (the surplus bits only
		// reach out-of-band lanes, which are floored every row).
		scr.eqBits = make([]uint64, 256*stride+1)
		scr.eqSeen = [4]uint64{}
	}
	st := scr.eqStride
	if st <= 4 {
		// Small arena (b <= 256 bytes, the overlap hot path): one memclr
		// beats tracking dirty rows. The stride never shrinks, so every
		// call at this stride took this path and eqSeen stays empty.
		clear(scr.eqBits)
		for j, ch := range b {
			scr.eqBits[int(ch)*st+(j>>6)] |= 1 << (j & 63)
		}
		return
	}
	for w := range scr.eqSeen {
		set := scr.eqSeen[w]
		for set != 0 {
			ch := w*64 + bits.TrailingZeros64(set)
			clear(scr.eqBits[ch*st : (ch+1)*st])
			set &= set - 1
		}
		scr.eqSeen[w] = 0
	}
	for j, ch := range b {
		scr.eqSeen[ch>>6] |= 1 << (ch & 63)
		scr.eqBits[int(ch)*st+(j>>6)] |= 1 << (j & 63)
	}
}

// bpBuildAdj builds the matchbits -> per-lane diagonal adjustment table
// for delta = Match-Mismatch: lane k of adjTab[p] holds delta iff bit k
// of p is set. Cached across calls; rebuilt only when the scoring changes.
func (scr *Scratch) bpBuildAdj(delta int) {
	d := uint64(delta)
	for p := 0; p < 256; p++ {
		var w uint64
		for k := uint(0); k < 8; k++ {
			if p>>k&1 == 1 {
				w |= d << (8 * k)
			}
		}
		scr.adjTab[p] = w
	}
	scr.adjDelta = delta
}

// bandedNWBit runs the bit-parallel kernel. It requires
// bpEligible(band, sc), n, m >= 1 and |n-m| <= band (the caller widens
// the band first). ok=false means a range guard tripped (possible only
// for near-gate scorings, never for the default) and the caller must
// rerun the scalar kernel.
func (scr *Scratch) bandedNWBit(a, b []byte, band int, sc Scoring) (Alignment, bool) {
	n, m := len(a), len(b)
	scr.bpBuildEq(b)
	if delta := sc.Match - sc.Mismatch; scr.adjDelta != delta {
		scr.bpBuildAdj(delta)
	}
	if need := 2 * (n + 1); cap(scr.bpTB) < need {
		scr.bpTB = make([]uint64, need)
	}
	tbw := scr.bpTB[:2*(n+1)]
	eqAll := scr.eqBits
	st := scr.eqStride
	adj := &scr.adjTab

	negw := splat8(bpNeg)
	xa := splat8(uint64(-sc.Mismatch))
	ga := splat8(uint64(-sc.Gap))
	ga2 := ga + ga
	ga4 := ga2 + ga2
	ga8 := ga4 + ga4

	// Full-band valid-lane mask and the row range [band+1, m-band] where it
	// applies unclipped (the loop's common case, so the per-row mask work
	// reduces to two register moves).
	wTop := 2 * band
	mTop := m - band
	vmF0 := bpPre[wTop+1][0]
	vmF1 := bpPre[wTop+1][1]
	// Full-band match-bit mask (bits 0..wTop). Masking mb keeps the
	// diagonal add zero on invalid lanes, which (together with the
	// end-of-row floor) keeps their values at or below the sentinel, so
	// rows whose band is not clipped on the right need no pre-scan floor.
	wMaskF := uint64(1)<<uint(wTop+1) - 1
	// Lazy re-anchoring window: the anchor lane may drift up to bpT from
	// bpBias before the splat/subtract renormalization runs. bpT is sized
	// so the lowest in-band lane, 64 - bpT - (S+K+|G|), stays >= bpNeg+2
	// (junk lanes never exceed bpNeg, so in-band lanes keep winning), and
	// capped at 8 so an ordinary renorm subtract cannot borrow out of a
	// junk lane (junk >= bpNeg-|X| >= 8 un-floored).
	bpT := 46 - (2*band*(sc.Match-sc.Gap) + (sc.Match - sc.Gap) + (-sc.Gap))
	if bpT > 8 {
		bpT = 8
	}
	// The window is asymmetric: upward drift (the common case on
	// high-identity inputs — the anchor gains Match on most rows) only
	// risks the top of the 8-bit domain, which has far more slack than the
	// sentinel floor below. With drift d <= bpTup every intermediate stays
	// at or below 64 + (bpTup+M) + S + M < 128, and since the per-row
	// anchor step never exceeds Match, no upward bail guard is needed.
	// For every eligible scoring bpTup >= 19 + 2|Gap| > bpT.
	bpTup := 63 - 2*band*(sc.Match-sc.Gap) - 2*sc.Match

	// Row 0: pure-gap prefix of b at lanes band..band+min(band,m); the
	// anchor (lane band, j=0) sits exactly at bpBias, so base starts 0.
	p0, p1 := negw, negw
	jmax := band
	if jmax > m {
		jmax = m
	}
	for j := 0; j <= jmax; j++ {
		c := band + j
		v := uint64(bpBias + j*sc.Gap)
		sh := 8 * uint(c&7)
		if c < 8 {
			p0 = p0&^(uint64(0xFF)<<sh) | v<<sh
		} else {
			p1 = p1&^(uint64(0xFF)<<sh) | v<<sh
		}
	}
	base := 0 // true score of the lane holding bpBias in (p0,p1)
	// f8 mirrors lane 8 (word 1, lane 0) of the previous row as a scalar.
	// It is the only word-1 lane the word-0 recurrence reads (u0's shift-in
	// below), and word 1 finishes a row one scan pass later than word 0 —
	// mirroring the lane keeps the 8-lane pass off the carried dependency
	// chain, which is what bounds the row latency.
	f8 := int(p1 & 0xFF)
	g8l := 8 * -sc.Gap
	// Traceback masks are staged one row and stored at the top of the next
	// iteration: their word-1 inputs finish a scan pass after word 0, and
	// deferring the store keeps that tail off the row's dependency chain.
	var tbQ0, tbQ1 uint64

	// Row-ahead state for the software pipeline: row i+1's valid-lane
	// masks, anchor lane and Eq/adj table loads are issued while row i's
	// scan — the kernel's longest dependency chain — is still in flight.
	// Match bits for row i: bit c = (a[i-1] == b[c+i-band-1]), read from
	// the Eq row of a[i-1] at bit offset i-band-1 (left-shifted into place
	// for the first rows where the offset is negative). The flat read
	// pulls one word past the offset unconditionally: the arena carries a
	// pad word so the index is in range, and surplus bits are removed by
	// the match-bit mask.
	vmA0, vmA1 := vmF0, vmF1
	caA := band
	clippedA := 1 > mTop
	var adjP0, adjP1 uint64
	{
		mbm := wMaskF
		if clippedA {
			cHi := m - 1 + band
			vmA0 = bpPre[cHi+1][0]
			vmA1 = bpPre[cHi+1][1]
			mbm = uint64(1)<<uint(cHi+1) - 1
			if cHi < band {
				caA = cHi
			}
		}
		mb := eqAll[int(a[0])*st] << uint(band) & mbm
		adjP0 = adj[byte(mb)]
		adjP1 = adj[byte(mb>>8)]
	}

	// The row loop runs in three segments: a general body for the head
	// (poke rows i <= band) and tail (right-clipped rows i >= mTop), and a
	// specialized body for the middle — no poke, no clipping on this or
	// the next row, so the lane masks and anchor are loop-invariant and
	// the next row's Eq bit offset is always non-negative. The middle is
	// ~90% of the rows on overlap-shaped inputs.
	mSeg := band
	if mSeg > n {
		mSeg = n
	}
	mSegEnd := mTop - 1
	if mSegEnd > n {
		mSegEnd = n
	}
	if mSegEnd < mSeg {
		mSegEnd = mSeg
	}
	genEnd := mSeg
	ii := 0
general:
	for ; ii < genEnd; ii++ {
		i := ii + 1
		vm0, vm1, ca := vmA0, vmA1, caA
		clipped := clippedA
		// Store the previous row's staged masks (row 0's slots are never
		// read, so the first iteration may write anything there).
		tbw[2*ii+1] = tbQ1
		tbw[2*ii] = tbQ0

		// diag = prev + (match ? Match : Mismatch), via add of
		// (Match-Mismatch) on match lanes then a uniform Mismatch.
		d0 := p0 + adjP0 - xa
		d1 := p1 + adjP1 - xa
		// up = prev shifted one lane down (lane c reads prev lane c+1),
		// bpNeg shifted into the top lane. Word 0 takes its spill-in from
		// the f8 lane mirror, not p1, so it never waits for word 1.
		u0 := (p0>>8 | uint64(f8)<<56) - ga
		u1 := (p1>>8 | bpNeg<<56) - ga
		g0 := ge8(d0, u0)
		g1 := ge8(d1, u1)
		c0 := u0 ^ (d0^u0)&g0
		c1 := u1 ^ (d1^u1)&g1

		if i <= band {
			// Column j=0 (pure-gap prefix of a): poked as a scalar; the
			// traceback hardwires j==0 to Up, so no mask bit is needed.
			cc := band - i // <= band-1 < 8: always in word 0
			v0 := bpBias + i*sc.Gap - base
			if v0 <= bpNeg+1 || v0 > 124 {
				return Alignment{}, false
			}
			sh := 8 * uint(cc)
			c0 = c0&^(uint64(0xFF)<<sh) | uint64(v0)<<sh
			vm0 &^= bpPre[cc][0]
		}
		if clipped {
			// Tail rows only: lanes above cHi carried live values in the
			// previous row, so floor them before the scan. Everywhere
			// else every invalid lane is already at/below the sentinel:
			// the previous row's floor plus the masked diagonal add keep
			// it there, and a sub-sentinel lane never wins a scan max.
			c0 = negw ^ (c0^negw)&vm0
			c1 = negw ^ (c1^negw)&vm1
		}

		if i < n {
			// Preload row i+1 while this row's scan fills the pipeline.
			mbm := wMaskF
			vmA0, vmA1, caA = vmF0, vmF1, band
			clippedA = i+1 > mTop
			if clippedA {
				cHi := m - i - 1 + band
				vmA0 = bpPre[cHi+1][0]
				vmA1 = bpPre[cHi+1][1]
				mbm = uint64(1)<<uint(cHi+1) - 1
				if cHi < band {
					caA = cHi
				}
			}
			bpos := i - band
			var mb uint64
			if bpos >= 0 {
				q := int(a[ii+1])*st + bpos>>6
				r := uint(bpos & 63)
				mb = eqAll[q]>>r | eqAll[q+1]<<(64-r)
			} else {
				mb = eqAll[int(a[ii+1])*st] << uint(-bpos)
			}
			mb &= mbm
			adjP0 = adj[byte(mb)]
			adjP1 = adj[byte(mb>>8)]
		}

		// Left relaxation as a distance-doubling max-plus scan: after the
		// passes below, s[c] = max_d cand[c-d] - d*|Gap| exactly (every
		// chain length is a subset sum of the pass distances). Sentinel
		// lanes cannot borrow (bpEligible bounds every pass decay by
		// bpNeg) and never beat an in-band lane even undecayed; in-band
		// sources below cLo were floored above, so they lose too. Passes
		// longer than the widest possible chain (band lanes) are skipped —
		// the branches are loop-invariant and predicted perfectly.
		s0, s1 := c0, c1
		if band > 0 {
			l0 := (s0<<8 | bpNeg) - ga
			l1 := (s1<<8 | s0>>56) - ga
			e0 := ge8(s0, l0)
			e1 := ge8(s1, l1)
			s0 = l0 ^ (s0^l0)&e0
			s1 = l1 ^ (s1^l1)&e1
			l0 = (s0<<16 | bpNeg2) - ga2
			l1 = (s1<<16 | s0>>48) - ga2
			e0 = ge8(s0, l0)
			e1 = ge8(s1, l1)
			s0 = l0 ^ (s0^l0)&e0
			s1 = l1 ^ (s1^l1)&e1
			if band >= 2 {
				l0 = (s0<<32 | bpNeg4) - ga4
				l1 = (s1<<32 | s0>>32) - ga4
				e0 = ge8(s0, l0)
				e1 = ge8(s1, l1)
				s0 = l0 ^ (s0^l0)&e0
				s1 = l1 ^ (s1^l1)&e1
				if band >= 4 {
					// 8-lane pass: word 0's candidates all originate
					// below lane 0 (sentinels), so only word 1 moves.
					// Lane 8 is also relaxed as a scalar (ties keep s,
					// matching ge8) so the next row's u0 need not wait.
					f8 = int(s1 & 0xFF)
					if v := int(s0&0xFF) - g8l; v > f8 {
						f8 = v
					}
					l1 = s0 - ga8
					e1 = ge8(s1, l1)
					s1 = l1 ^ (s1^l1)&e1
				}
			}
		}
		// Packed traceback masks, bit 7 = up beats diag (from g), bit 6 =
		// left beats max(diag,up): h's MSB per lane is c >= s, i.e. the
		// scan did NOT improve the lane, so its complement shifted down one
		// bit is the left mask.
		h0 := ((c0 | bpLaneMSB) - s0) & bpLaneMSB
		h1 := ((c1 | bpLaneMSB) - s1) & bpLaneMSB
		tbQ1 = ^g1&bpLaneMSB | (h1^bpLaneMSB)>>1
		tbQ0 = ^g0&bpLaneMSB | (h0^bpLaneMSB)>>1

		// Re-anchor lazily: renormalize only once the anchor lane drifts
		// beyond the bpT window (per-row drift is bounded by [Mismatch,
		// Match] for eligible scorings, so the drift at the trigger is at
		// most bpT+8; the guard trips only at the eligibility boundary,
		// and then the caller reruns the scalar kernel).
		// ca <= band < 8, so the anchor always sits in word 0.
		av := int(s0 >> (8 * uint(ca)) & 0xFF)
		if d := av - bpBias; d > bpTup || d < -bpT {
			if d < -(bpT + 8) {
				return Alignment{}, false
			}
			if d > 8 {
				// A wide subtract could borrow out of an un-floored junk
				// lane; pre-set invalid lanes to sentinel+d so they land
				// exactly on the sentinel afterwards.
				w := splat8(uint64(d + bpNeg))
				s0 = w ^ (s0^w)&vm0
				s1 = w ^ (s1^w)&vm1
			}
			if d > 0 {
				w := splat8(uint64(d))
				s0 -= w
				s1 -= w
			} else {
				w := splat8(uint64(-d))
				s0 += w
				s1 += w
			}
			f8 -= d
			base += d
		}
		// Word 0 of a wide unclipped band has no invalid lanes — skip the
		// identity select there; word 1 always carries sentinel lanes.
		if vm0 != ^uint64(0) {
			s0 = negw ^ (s0^negw)&vm0
		}
		s1 = negw ^ (s1^negw)&vm1
		// Floor the lane-8 mirror with word 1's valid mask: this also pins
		// it to the sentinel for bands too narrow to reach word 1.
		f8 = bpNeg ^ (f8^bpNeg)&int(vm1&0xFF)
		p0, p1 = s0, s1
	}
	if genEnd < n {
		for ; ii < mSegEnd; ii++ {
			i := ii + 1
			tbw[2*ii+1] = tbQ1
			tbw[2*ii] = tbQ0

			d0 := p0 + adjP0 - xa
			d1 := p1 + adjP1 - xa
			u0 := (p0>>8 | uint64(f8)<<56) - ga
			u1 := (p1>>8 | bpNeg<<56) - ga
			g0 := ge8(d0, u0)
			g1 := ge8(d1, u1)
			c0 := u0 ^ (d0^u0)&g0
			c1 := u1 ^ (d1^u1)&g1

			{
				bpos := i - band
				q := int(a[ii+1])*st + bpos>>6
				r := uint(bpos & 63)
				mb := (eqAll[q]>>r | eqAll[q+1]<<(64-r)) & wMaskF
				adjP0 = adj[byte(mb)]
				adjP1 = adj[byte(mb>>8)]
			}

			s0, s1 := c0, c1
			if band > 0 {
				l0 := (s0<<8 | bpNeg) - ga
				l1 := (s1<<8 | s0>>56) - ga
				e0 := ge8(s0, l0)
				e1 := ge8(s1, l1)
				s0 = l0 ^ (s0^l0)&e0
				s1 = l1 ^ (s1^l1)&e1
				l0 = (s0<<16 | bpNeg2) - ga2
				l1 = (s1<<16 | s0>>48) - ga2
				e0 = ge8(s0, l0)
				e1 = ge8(s1, l1)
				s0 = l0 ^ (s0^l0)&e0
				s1 = l1 ^ (s1^l1)&e1
				if band >= 2 {
					l0 = (s0<<32 | bpNeg4) - ga4
					l1 = (s1<<32 | s0>>32) - ga4
					e0 = ge8(s0, l0)
					e1 = ge8(s1, l1)
					s0 = l0 ^ (s0^l0)&e0
					s1 = l1 ^ (s1^l1)&e1
					if band >= 4 {
						f8 = int(s1 & 0xFF)
						if v := int(s0&0xFF) - g8l; v > f8 {
							f8 = v
						}
						l1 = s0 - ga8
						e1 = ge8(s1, l1)
						s1 = l1 ^ (s1^l1)&e1
					}
				}
			}
			h0 := ((c0 | bpLaneMSB) - s0) & bpLaneMSB
			h1 := ((c1 | bpLaneMSB) - s1) & bpLaneMSB
			tbQ1 = ^g1&bpLaneMSB | (h1^bpLaneMSB)>>1
			tbQ0 = ^g0&bpLaneMSB | (h0^bpLaneMSB)>>1

			av := int(s0 >> (8 * uint(band)) & 0xFF)
			if d := av - bpBias; d > bpTup || d < -bpT {
				if d < -(bpT + 8) {
					return Alignment{}, false
				}
				if d > 8 {
					w := splat8(uint64(d + bpNeg))
					s0 = w ^ (s0^w)&vmF0
					s1 = w ^ (s1^w)&vmF1
				}
				if d > 0 {
					w := splat8(uint64(d))
					s0 -= w
					s1 -= w
				} else {
					w := splat8(uint64(-d))
					s0 += w
					s1 += w
				}
				f8 -= d
				base += d
			}
			if vmF0 != ^uint64(0) {
				s0 = negw ^ (s0^negw)&vmF0
			}
			s1 = negw ^ (s1^negw)&vmF1
			f8 = bpNeg ^ (f8^bpNeg)&int(vmF1&0xFF)
			p0, p1 = s0, s1
		}
		genEnd = n
		goto general
	}
	tbw[2*n+1] = tbQ1
	tbw[2*n] = tbQ0

	cF := m - n + band
	var fv int
	if cF < 8 {
		fv = int(p0 >> (8 * uint(cF)) & 0xFF)
	} else {
		fv = int(p1 >> (8 * uint(cF-8)) & 0xFF)
	}
	aln := Alignment{Score: base + fv - bpBias}

	// Traceback over the stored direction masks, with the scalar
	// priority: left if strictly better than max(diag,up), else up if
	// strictly better than diag, else diag; row 0 is all Left, column 0
	// all Up.
	i, j := n, m
	for i > 0 && j > 0 {
		// c = j-i+band is invariant along a diagonal run, so the word
		// offset and shift are hoisted and the hot loop is load-test-step.
		c := j - i + band
		sh := 8 * uint(c&7)
		q := c >> 3
		for tbw[2*i+q]>>sh&0xC0 == 0 {
			if a[i-1] == b[j-1] {
				aln.Matches++
			}
			i--
			j--
			aln.Columns++
			if i == 0 || j == 0 {
				break
			}
		}
		if i == 0 || j == 0 {
			break
		}
		if tbw[2*i+q]>>sh&0x40 != 0 {
			j--
		} else {
			i--
		}
		aln.Columns++
	}
	// Rails: row 0 is all Left, column 0 all Up — pure gap columns.
	aln.Columns += i + j
	return aln, true
}
