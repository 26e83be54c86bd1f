// Package bitutil provides the bit- and word-level permutation helpers
// shared by the block ciphers in this repository.
//
// The paper (Section 4.2.1) notes that bit-level permutations such as the
// ones in DES/3DES are the operations word-oriented embedded processors
// struggle with, motivating ISA extensions; this package is the software
// baseline those extensions accelerate.
package bitutil

import "encoding/binary"

// PermuteBlock returns the permutation of src described by table.
//
// Positions in table are 1-based from the most-significant bit of an
// srcBits-wide value, following the FIPS 46-3 convention. The result is
// len(table) bits wide, left-aligned at bit len(table)-1.
func PermuteBlock(src uint64, table []uint8, srcBits int) uint64 {
	var dst uint64
	for _, n := range table {
		bit := (src >> (uint(srcBits) - uint(n))) & 1
		dst = dst<<1 | bit
	}
	return dst
}

// RotateLeft28 rotates a 28-bit value left by n bits, keeping the result
// within 28 bits. Used by the DES key schedule.
func RotateLeft28(v uint32, n uint) uint32 {
	const mask = 1<<28 - 1
	v &= mask
	return ((v << n) | (v >> (28 - n))) & mask
}

// Load64 assembles a big-endian uint64 from an 8-byte slice.
func Load64(b []byte) uint64 {
	_ = b[7]
	return uint64(b[0])<<56 | uint64(b[1])<<48 | uint64(b[2])<<40 | uint64(b[3])<<32 |
		uint64(b[4])<<24 | uint64(b[5])<<16 | uint64(b[6])<<8 | uint64(b[7])
}

// Store64 writes v big-endian into an 8-byte slice.
func Store64(b []byte, v uint64) {
	_ = b[7]
	b[0] = byte(v >> 56)
	b[1] = byte(v >> 48)
	b[2] = byte(v >> 40)
	b[3] = byte(v >> 32)
	b[4] = byte(v >> 24)
	b[5] = byte(v >> 16)
	b[6] = byte(v >> 8)
	b[7] = byte(v)
}

// Load32LE assembles a little-endian uint32 from a 4-byte slice (MD5 order).
func Load32LE(b []byte) uint32 {
	_ = b[3]
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

// Store32LE writes v little-endian into a 4-byte slice (MD5 order).
func Store32LE(b []byte, v uint32) {
	_ = b[3]
	b[0] = byte(v)
	b[1] = byte(v >> 8)
	b[2] = byte(v >> 16)
	b[3] = byte(v >> 24)
}

// XORBytes sets dst[i] = a[i] ^ b[i] for i < n where n is the shortest
// length among the three slices, and returns n. It XORs eight bytes per
// step as one 64-bit load, XOR and store, then finishes byte by byte, so
// an 8- or 16-byte cipher block takes one or two steps. dst may alias a
// or b exactly.
func XORBytes(dst, a, b []byte) int {
	n := min(len(a), len(b), len(dst))
	i := 0
	for ; i+8 <= n; i += 8 {
		binary.LittleEndian.PutUint64(dst[i:], binary.LittleEndian.Uint64(a[i:])^binary.LittleEndian.Uint64(b[i:]))
	}
	for ; i < n; i++ {
		dst[i] = a[i] ^ b[i]
	}
	return n
}

// HammingWeight8 returns the number of set bits in b. It is the leakage
// function used by the simulated power model in internal/attack/dpa.
func HammingWeight8(b uint8) int {
	n := 0
	for b != 0 {
		n += int(b & 1)
		b >>= 1
	}
	return n
}
