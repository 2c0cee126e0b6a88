// Package dna provides the sequence primitives used throughout Focus:
// nucleotide alphabets, reverse complements, k-mer extraction with 2-bit
// packing, and FASTA/FASTQ input and output.
//
// Sequences are represented as []byte over the alphabet {A, C, G, T, N}
// (upper case). Lower-case input is accepted by the parsers and folded to
// upper case; any other byte is an error.
package dna

import "fmt"

// Complement maps each IUPAC base this package supports to its complement.
// N maps to N.
var complement = [256]byte{}

func init() {
	for i := range complement {
		complement[i] = 0
	}
	complement['A'] = 'T'
	complement['C'] = 'G'
	complement['G'] = 'C'
	complement['T'] = 'A'
	complement['N'] = 'N'
}

// ValidBase reports whether b is one of A, C, G, T or N.
func ValidBase(b byte) bool { return complement[b] != 0 }

// ValidateSeq returns an error describing the first invalid byte in seq,
// or nil if every byte is a valid base.
func ValidateSeq(seq []byte) error {
	for i, b := range seq {
		if !ValidBase(b) {
			return fmt.Errorf("dna: invalid base %q at position %d", b, i)
		}
	}
	return nil
}

// Complement returns the complement of a single base. It panics on bytes
// that are not valid bases; callers validate input at parse time.
func Complement(b byte) byte {
	c := complement[b]
	if c == 0 {
		panic(fmt.Sprintf("dna: complement of invalid base %q", b))
	}
	return c
}

// ReverseComplement returns a newly allocated reverse complement of seq.
func ReverseComplement(seq []byte) []byte {
	rc := make([]byte, len(seq))
	for i, b := range seq {
		rc[len(seq)-1-i] = Complement(b)
	}
	return rc
}

// IsReverseComplement reports whether b is the reverse complement of a,
// every byte of both being a valid base. Complement is an involution on
// the valid bases, so the relation is symmetric.
func IsReverseComplement(a, b []byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i, c := range a {
		if x := complement[c]; x == 0 || x != b[len(b)-1-i] {
			return false
		}
	}
	return true
}

// ReverseComplementInPlace reverse-complements seq without allocating.
func ReverseComplementInPlace(seq []byte) {
	i, j := 0, len(seq)-1
	for i < j {
		seq[i], seq[j] = Complement(seq[j]), Complement(seq[i])
		i++
		j--
	}
	if i == j {
		seq[i] = Complement(seq[i])
	}
}

// baseCode maps A,C,G,T to 0..3. N and invalid bases map to 0xFF.
var baseCode = [256]byte{}

func init() {
	for i := range baseCode {
		baseCode[i] = 0xFF
	}
	baseCode['A'] = 0
	baseCode['C'] = 1
	baseCode['G'] = 2
	baseCode['T'] = 3
}

// codeBase is the inverse of baseCode for the four concrete bases.
var codeBase = [4]byte{'A', 'C', 'G', 'T'}

// BaseCode returns the 2-bit code of b (A=0 C=1 G=2 T=3) and ok=false for
// N or invalid bytes.
func BaseCode(b byte) (code byte, ok bool) {
	c := baseCode[b]
	return c, c != 0xFF
}

// CodeBase returns the base letter for a 2-bit code.
func CodeBase(c byte) byte { return codeBase[c&3] }

// GC returns the fraction of G and C bases in seq, ignoring Ns. It returns
// 0 for an empty or all-N sequence.
func GC(seq []byte) float64 {
	gc, acgt := 0, 0
	for _, b := range seq {
		switch b {
		case 'G', 'C':
			gc++
			acgt++
		case 'A', 'T':
			acgt++
		}
	}
	if acgt == 0 {
		return 0
	}
	return float64(gc) / float64(acgt)
}
