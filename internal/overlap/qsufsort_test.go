package overlap

// This file is a suffix array built with the Larsson–Sadakane "qsufsort"
// prefix-doubling algorithm (Larsson & Sadakane, Faster Suffix Sorting,
// TCS 387(3), 2007 — the paper's reference [14]) plus substring lookup by
// binary search: the structure the paper indexes reference read subsets
// with for k-mer seeded overlap detection (§II.B). Production seeds from
// the packed k-mer table; this suffix array is that table's oracle
// (saindex_test.go), so it lives only in the package's tests.

import (
	"bytes"
	"sort"
)

// suffixArray is a suffix array over a byte string.
type suffixArray struct {
	data []byte
	sa   []int
}

// newSuffixArray builds the suffix array of data in O(n log n) expected
// time with the Larsson–Sadakane prefix-doubling algorithm. The data slice
// is retained (not copied); callers must not mutate it afterwards.
func newSuffixArray(data []byte) *suffixArray {
	return &suffixArray{data: data, sa: qsufsort(data)}
}

// Len returns the number of suffixes (= len(data)).
func (a *suffixArray) Len() int { return len(a.sa) }

// At returns the i-th smallest suffix's start position.
func (a *suffixArray) At(i int) int { return a.sa[i] }

// Lookup returns the start positions of every occurrence of pattern, in
// arbitrary order (suffix-array order). It returns nil when pattern is
// empty or absent. If max >= 0, at most max positions are returned.
func (a *suffixArray) Lookup(pattern []byte, max int) []int {
	if len(pattern) == 0 || max == 0 {
		return nil
	}
	// Binary search for the first suffix >= pattern.
	lo := sort.Search(len(a.sa), func(i int) bool {
		return bytes.Compare(a.suffix(i), pattern) >= 0
	})
	// And the first suffix that does not have pattern as a prefix. When a
	// cap is given, only the first max positions (in suffix-array order)
	// can be returned, so the scan window is clamped to max: repeat-masked
	// probes (overlap.Config.MaxOccur) never pay for the full occurrence
	// range of a high-frequency pattern.
	window := len(a.sa) - lo
	if max > 0 && window > max {
		window = max
	}
	hi := lo + sort.Search(window, func(i int) bool {
		return !bytes.HasPrefix(a.suffix(lo+i), pattern)
	})
	if hi == lo {
		return nil
	}
	n := hi - lo
	if max > 0 && n > max {
		n = max
	}
	out := make([]int, n)
	copy(out, a.sa[lo:lo+n])
	return out
}

func (a *suffixArray) suffix(i int) []byte { return a.data[a.sa[i]:] }

// qsufsort is the Larsson–Sadakane suffix sorting algorithm: suffixes are
// first bucket-sorted by their leading byte, then repeatedly sorted within
// unsorted groups by the group rank of the suffix h positions later,
// doubling h each round. Sorted runs are folded into negative-length
// markers so each round only touches unsorted work.
func qsufsort(data []byte) []int {
	sa := sortedByFirstByte(data)
	if len(sa) < 2 {
		return sa
	}
	inv := initGroups(sa, data)

	// The array is 1-ordered after the first-byte bucket sort.
	x := &suffixSortable{sa: sa, inv: inv, h: 1}

	for sa[0] > -len(sa) { // until one all-sorted run remains
		pi := 0 // first position of the current group
		sl := 0 // negated length of adjacent sorted runs
		for pi < len(sa) {
			if s := sa[pi]; s < 0 { // sorted run: skip and accumulate
				pi -= s
				sl += s
			} else { // unsorted group: sort it by rank at offset h
				if sl != 0 {
					sa[pi+sl] = sl // fold accumulated sorted runs
					sl = 0
				}
				pk := inv[s] + 1 // one past the group's last position
				x.sa = sa[pi:pk]
				sort.Sort(x)
				x.updateGroups(pi)
				pi = pk
			}
		}
		if sl != 0 {
			sa[pi+sl] = sl
		}
		x.h *= 2
	}

	for i := range sa { // reconstruct the array from the rank table
		sa[inv[i]] = i
	}
	return sa
}

// sortedByFirstByte counting-sorts suffix start positions by first byte.
func sortedByFirstByte(data []byte) []int {
	var count [256]int
	for _, b := range data {
		count[b]++
	}
	sum := 0
	for b := range count {
		count[b], sum = sum, count[b]+sum
	}
	sa := make([]int, len(data))
	for i, b := range data {
		sa[count[b]] = i
		count[b]++
	}
	return sa
}

// initGroups assigns each suffix the index of the LAST member of its
// first-byte group (the Larsson–Sadakane group number) and marks singleton
// groups as sorted. The final (shortest) suffix is isolated at the front
// of its group so that an unstable sort cannot order "a" after "aba".
func initGroups(sa []int, data []byte) []int {
	inv := make([]int, len(data))
	prevGroup := len(sa) - 1
	groupByte := data[sa[prevGroup]]
	for i := len(sa) - 1; i >= 0; i-- {
		if b := data[sa[i]]; b < groupByte {
			if prevGroup == i+1 {
				sa[i+1] = -1
			}
			groupByte = b
			prevGroup = i
		}
		inv[sa[i]] = prevGroup
		if prevGroup == 0 {
			sa[0] = -1
		}
	}
	lastByte := data[len(data)-1]
	s := -1
	for i := range sa {
		sufIndex := sa[i]
		if sufIndex < 0 {
			continue
		}
		if data[sufIndex] == lastByte && s == -1 {
			s = i
		}
		if sufIndex == len(sa)-1 {
			sa[i], sa[s] = sa[s], sa[i]
			inv[sufIndex] = s
			sa[s] = -1 // isolated sorted group
			break
		}
	}
	return inv
}

// suffixSortable sorts a group of suffixes by the rank of the suffix h
// positions further along.
type suffixSortable struct {
	sa  []int
	inv []int
	h   int
	buf []int
}

func (x *suffixSortable) Len() int           { return len(x.sa) }
func (x *suffixSortable) Less(i, j int) bool { return x.inv[x.sa[i]+x.h] < x.inv[x.sa[j]+x.h] }
func (x *suffixSortable) Swap(i, j int)      { x.sa[i], x.sa[j] = x.sa[j], x.sa[i] }

// updateGroups splits the just-sorted group into subgroups of equal rank,
// renumbers them, and marks singletons as sorted.
func (x *suffixSortable) updateGroups(offset int) {
	bounds := x.buf[0:0]
	group := x.inv[x.sa[0]+x.h]
	for i := 1; i < len(x.sa); i++ {
		if g := x.inv[x.sa[i]+x.h]; g > group {
			bounds = append(bounds, i)
			group = g
		}
	}
	bounds = append(bounds, len(x.sa))
	x.buf = bounds

	prev := 0
	for _, b := range bounds {
		for i := prev; i < b; i++ {
			x.inv[x.sa[i]] = offset + b - 1
		}
		if b-prev == 1 {
			x.sa[prev] = -1
		}
		prev = b
	}
}
