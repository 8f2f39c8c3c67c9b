// Package bsort implements the paper's hybrid CPU/GPU sort (Section 3).
//
// Tuples stay unmoved in the Sort Data Store (SDS); sorting operates on an
// intermediate *partial key buffer* of (4-byte partial key, 4-byte
// payload) entries, where the key is a binary-sortable prefix of the sort
// key and the payload addresses the tuple. A job queue drives the sort:
// the initial job covers the whole data set; after a GPU radix pass sorts
// a job by its 4-byte prefix, every *duplicate range* (a run of equal
// prefixes) becomes a new job at the next 4-byte key depth. Small jobs are
// sorted on the CPU instead — the transfer plus launch cost exceeds the
// device's advantage — so CPU and GPU run jobs from the same queue
// concurrently, and conflict-free partitioning keeps the design merge-free.
package bsort

import (
	"encoding/binary"
	"math"
)

// KeySource supplies binary-sortable keys for the rows being sorted: the
// engine's window into the SDS buckets. Keys are fixed width and compared
// 4 bytes at a time ("subsequent fetches of the next partial key may be
// required to determine the final ordering").
type KeySource interface {
	// NumRows is the tuple count.
	NumRows() int
	// MaxDepth is the key width in 4-byte segments.
	MaxDepth() int
	// PartialKey returns the 4-byte big-endian-sortable segment at the
	// given depth for the given row.
	PartialKey(row int32, depth int) uint32
}

// BytesKeySource adapts pre-encoded fixed-width sortable byte keys.
type BytesKeySource struct {
	keys  [][]byte
	depth int
}

// NewBytesKeySource wraps keys, which must share a length that is a
// positive multiple of 4 (pad with zeros via EncodePad if needed).
func NewBytesKeySource(keys [][]byte) *BytesKeySource {
	if len(keys) == 0 {
		return &BytesKeySource{}
	}
	return &BytesKeySource{keys: keys, depth: (len(keys[0]) + 3) / 4}
}

// NumRows implements KeySource.
func (s *BytesKeySource) NumRows() int { return len(s.keys) }

// MaxDepth implements KeySource.
func (s *BytesKeySource) MaxDepth() int { return s.depth }

// PartialKey implements KeySource.
func (s *BytesKeySource) PartialKey(row int32, depth int) uint32 {
	k := s.keys[row]
	if i := depth * 4; i+4 <= len(k) {
		return binary.BigEndian.Uint32(k[i:])
	}
	var v uint32
	for i := 0; i < 4; i++ {
		v <<= 8
		if idx := depth*4 + i; idx < len(k) {
			v |= uint32(k[idx])
		}
	}
	return v
}

// --- order-preserving key encoding ---
//
// The engine transforms every sort column "into a binary stream that is
// sorted on 4 bytes at a time" regardless of type (Section 3). These
// helpers produce big-endian, unsigned-comparable encodings.

// AppendInt64Key appends an order-preserving 8-byte encoding of v
// (offset-binary: flip the sign bit). desc inverts the encoding.
func AppendInt64Key(dst []byte, v int64, desc bool) []byte {
	u := uint64(v) ^ (1 << 63)
	if desc {
		u = ^u
	}
	return appendUint64(dst, u)
}

// AppendFloat64Key appends an order-preserving 8-byte encoding of v using
// the standard IEEE-754 total-order trick.
func AppendFloat64Key(dst []byte, v float64, desc bool) []byte {
	b := math.Float64bits(v)
	if b>>63 == 1 {
		b = ^b // negative: flip all
	} else {
		b |= 1 << 63 // positive: flip sign
	}
	if desc {
		b = ^b
	}
	return appendUint64(dst, b)
}

// AppendUint32Key appends a 4-byte big-endian encoding of v (used for
// dictionary codes, which are order-preserving because dictionaries are
// sorted).
func AppendUint32Key(dst []byte, v uint32, desc bool) []byte {
	if desc {
		v = ^v
	}
	return append(dst, byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

// EncodePad pads dst with zero bytes to a multiple of 4.
func EncodePad(dst []byte) []byte {
	for len(dst)%4 != 0 {
		dst = append(dst, 0)
	}
	return dst
}

func appendUint64(dst []byte, u uint64) []byte {
	return append(dst,
		byte(u>>56), byte(u>>48), byte(u>>40), byte(u>>32),
		byte(u>>24), byte(u>>16), byte(u>>8), byte(u))
}
