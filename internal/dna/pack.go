package dna

import (
	"encoding/binary"
	"fmt"
)

// This file implements the wire representation of DNA sequences: 2 bits
// per base with an escape plane for bytes outside {A,C,G,T}. The
// distributed substrate ships read sequences and node contigs with it
// (see DESIGN.md §10), cutting sequence payloads ~4x versus the
// 1-byte-per-base raw encoding.
//
// Layout of one packed sequence:
//
//	uvarint n          — number of bases
//	uvarint x          — number of escaped positions
//	x × (uvarint gap,  — position deltas (first is the absolute position,
//	     byte raw)        subsequent are gaps from the previous position),
//	                      each followed by the raw escaped byte
//	ceil(n/4) bytes    — 2-bit codes, 4 bases per byte, little-endian
//	                      within the byte (base i in bits 2*(i%4));
//	                      escaped positions carry code 0
//
// Any []byte round-trips exactly — N bases, the '#' separator of the
// suffix-array text, lower case, arbitrary bytes — escapes are just
// increasingly expensive (2 bytes + gap varint each), so the format is
// only compact for mostly-ACGT content, which read and contig payloads
// are.

// packEsc folds escape detection into the payload lookup: bits 0-1 carry
// the 2-bit code (0 for escaped bytes, per the layout), bit 8 flags an
// escape. Shifting four entries into a uint16 keeps the flags in the high
// byte, so the pack loop emits the packed byte and detects escapes with
// one table lookup per base and no branches. unpack4 is the inverse: one
// packed byte to its four bases as a little-endian uint32, stored with a
// single 4-byte write.
var (
	packEsc [256]uint16
	unpack4 [256]uint32
)

func init() {
	for i := range packEsc {
		if c := baseCode[i]; c != 0xFF {
			packEsc[i] = uint16(c)
		} else {
			packEsc[i] = 0x100
		}
	}
	for i := range unpack4 {
		var v uint32
		for j := 0; j < 4; j++ {
			v |= uint32(codeBase[(i>>(2*j))&3]) << (8 * j)
		}
		unpack4[i] = v
	}
}

// Pack appends the packed encoding of seq to dst and returns the extended
// slice. It never retains seq or dst.
func Pack(dst, seq []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(seq)))
	// Optimistic single pass: write escape count 0 and pack the payload
	// while accumulating the escape flags; the high byte of the packEsc
	// entries stays zero for all-ACGT input, which read and contig
	// payloads are. Escapes send the whole sequence down the slow path.
	mark := len(dst)
	dst = append(dst, 0)
	packed := (len(seq) + 3) / 4
	base := len(dst)
	if cap(dst)-base < packed {
		grown := make([]byte, base, base+packed)
		copy(grown, dst)
		dst = grown
	}
	dst = dst[:base+packed]
	out := dst[base:]
	var esc uint16
	full := len(seq) &^ 3
	for i := 0; i < full; i += 4 {
		v := packEsc[seq[i]] |
			packEsc[seq[i+1]]<<2 |
			packEsc[seq[i+2]]<<4 |
			packEsc[seq[i+3]]<<6
		esc |= v
		out[i>>2] = byte(v)
	}
	if full < len(seq) {
		var v uint16
		for i, b := range seq[full:] {
			v |= packEsc[b] << uint(2*i)
		}
		esc |= v
		out[full>>2] = byte(v)
	}
	if esc < 0x100 {
		return dst
	}
	return packSlow(dst[:mark], seq)
}

// packSlow re-encodes a sequence that contains escaped bytes: the escape
// section (count, gap-coded positions, raw bytes) precedes the payload,
// so the optimistic layout Pack wrote cannot be patched in place. dst
// arrives truncated to just after the length varint.
func packSlow(dst, seq []byte) []byte {
	nEsc := 0
	for _, b := range seq {
		if baseCode[b] == 0xFF {
			nEsc++
		}
	}
	dst = binary.AppendUvarint(dst, uint64(nEsc))
	prev := 0
	for i, b := range seq {
		if baseCode[b] == 0xFF {
			dst = binary.AppendUvarint(dst, uint64(i-prev))
			dst = append(dst, b)
			prev = i
		}
	}
	var acc byte
	shift := uint(0)
	for _, b := range seq {
		acc |= byte(packEsc[b]) << shift
		shift += 2
		if shift == 8 {
			dst = append(dst, acc)
			acc, shift = 0, 0
		}
	}
	if shift > 0 {
		dst = append(dst, acc)
	}
	return dst
}

// Unpack decodes one packed sequence from src, appending its bases to dst
// (pass nil to allocate fresh). It returns the extended destination and
// the remainder of src after the sequence. The returned bases never alias
// src.
func Unpack(dst, src []byte) (seq, rest []byte, err error) {
	n, k := binary.Uvarint(src)
	if k <= 0 {
		return dst, src, fmt.Errorf("dna: packed sequence: bad length")
	}
	src = src[k:]
	nEsc, k := binary.Uvarint(src)
	if k <= 0 {
		return dst, src, fmt.Errorf("dna: packed sequence: bad escape count")
	}
	src = src[k:]
	type esc struct {
		pos int
		b   byte
	}
	// Escapes are rare; a small stack buffer avoids allocation for the
	// common counts.
	var escBuf [16]esc
	escs := escBuf[:0]
	prev := 0
	for i := uint64(0); i < nEsc; i++ {
		gap, k := binary.Uvarint(src)
		if k <= 0 || k >= len(src) {
			return dst, src, fmt.Errorf("dna: packed sequence: bad escape %d", i)
		}
		b := src[k]
		src = src[k+1:]
		pos := prev + int(gap)
		if uint64(pos) >= n {
			return dst, src, fmt.Errorf("dna: packed sequence: escape position %d outside %d bases", pos, n)
		}
		escs = append(escs, esc{pos, b})
		prev = pos
	}
	packed := (int(n) + 3) / 4
	if packed > len(src) {
		return dst, src, fmt.Errorf("dna: packed sequence: %d payload bytes, need %d", len(src), packed)
	}
	base := len(dst)
	if cap(dst)-base < int(n) {
		grown := make([]byte, base, base+int(n))
		copy(grown, dst)
		dst = grown
	}
	out := dst[base : base+int(n)]
	dst = dst[:base+int(n)]
	full := int(n) &^ 3
	for i := 0; i < full; i += 4 {
		binary.LittleEndian.PutUint32(out[i:], unpack4[src[i>>2]])
	}
	for i := full; i < int(n); i++ {
		out[i] = codeBase[(src[i>>2]>>uint((i&3)*2))&3]
	}
	for _, e := range escs {
		out[e.pos] = e.b
	}
	return dst, src[packed:], nil
}
