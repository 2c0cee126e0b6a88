package dna

// RepeatMasked is the single definition of the overlap stage's
// occurrence-cap (repeat-masking) policy: a k-mer occurring occ times in
// one reference subset is masked when a positive cap is exceeded
// *strictly* — exactly-at-threshold k-mers are kept. cap <= 0 disables
// masking. Every seed structure (the k-mer table and its suffix-array
// test oracle) must call this helper rather than re-deriving the
// comparison, so the boundary semantics cannot drift between them.
func RepeatMasked(occ, cap int) bool {
	return cap > 0 && occ > cap
}
