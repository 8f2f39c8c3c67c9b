// Package groupby implements the paper's hybrid hash-based
// group-by/aggregation (Section 4): a CPU path equivalent to BLU's
// local-hash-table chain (LGHT + aggregation evaluators) and three GPU
// kernels selected at runtime by a moderator from optimizer metadata —
// the exact row count, the KMV-estimated group count, and the number and
// types of the aggregation functions.
package groupby

import (
	"errors"
	"fmt"
	"math"

	"blugpu/internal/columnar"
	"blugpu/internal/vtime"
)

// AggKind enumerates the aggregation functions the kernels support.
// AVG is decomposed into SUM and COUNT by the planner; COUNT(col) is
// rewritten as SUM(col IS NOT NULL) so the kernel COUNT is COUNT(*).
type AggKind int

// Aggregation functions.
const (
	Sum AggKind = iota
	Count
	Min
	Max
)

func (k AggKind) String() string {
	return [...]string{"SUM", "COUNT", "MIN", "MAX"}[k]
}

// AggSpec is one aggregation function over one payload column.
type AggSpec struct {
	Kind AggKind
	// Type is the payload's value type (Int64 or Float64). Count ignores
	// it.
	Type columnar.Type
}

// InitWord returns the hash-table mask word for this aggregate — the
// initial accumulator value of Section 4.3.1's table mask: 0 for
// SUM/COUNT, the type's maximum for MIN, the type's minimum for MAX.
func (a AggSpec) InitWord() uint64 {
	switch a.Kind {
	case Sum, Count:
		return 0
	case Min:
		if a.Type == columnar.Float64 {
			return math.Float64bits(math.Inf(1))
		}
		return uint64(int64(math.MaxInt64))
	case Max:
		if a.Type == columnar.Float64 {
			return math.Float64bits(math.Inf(-1))
		}
		return uint64(1) << 63 // MinInt64 bit pattern
	}
	return 0
}

// EmptyKey is the sentinel marking an unoccupied hash-table slot: the
// all-Fs pattern of the paper's mask. Packed grouping keys must therefore
// never equal it; the evaluator chain guarantees packed keys use < 64 bits.
const EmptyKey = ^uint64(0)

// Input is one group-by/aggregation task, as produced by the evaluator
// chain (LCOG/LCOV -> CCAT -> HASH, plus the KMV sketch).
type Input struct {
	// NumRows is the exact input row count (known by kernel launch time).
	NumRows int
	// Keys holds the packed grouping key per row when the key fits 63
	// bits (KeyBytes 8); each value must be != EmptyKey.
	Keys []uint64
	// WideKeys holds fixed-width concatenated keys when the grouping key
	// needs more than 63 bits; all entries share KeyBytes length. The
	// device then uses Murmur hashing and per-slot locks instead of
	// atomicCAS.
	WideKeys [][]byte
	// KeyBytes is the fixed key width in bytes.
	KeyBytes int
	// KeyBits is the number of bits the packed narrow key actually uses
	// (0 = unknown, treated as 64). Keys using <= 32 bits ship to the
	// device as compressed 4-byte codes, matching BLU's compressed page
	// format ("process DB2 BLU data with minimum conversion cost").
	KeyBits int
	// Hashes is the per-row output of the HASH evaluator.
	Hashes []uint64
	// Aggs describes the aggregation functions.
	Aggs []AggSpec
	// Payloads holds, per aggregate, the raw 64-bit payload per row
	// (int64 two's-complement or float64 bits per AggSpec.Type). Count
	// aggregates carry a nil payload.
	Payloads [][]uint64
	// EstGroups is the KMV estimate of the number of groups (may be 0
	// when unknown, in which case tables are sized by NumRows).
	EstGroups uint64
}

// Wide reports whether the task uses the wide-key (lock-based) path:
// its keys are wider than 8 bytes, or they are 8-byte keys needing all
// 64 bits (a lone float field or an int field spanning the full int64
// range), which leave no code free for EmptyKey and so come as WideKeys.
func (in *Input) Wide() bool { return in.WideKeys != nil || in.KeyBytes > 8 }

// Validate checks internal consistency.
func (in *Input) Validate() error {
	if in.NumRows < 0 {
		return fmt.Errorf("groupby: negative row count %d", in.NumRows)
	}
	if in.KeyBytes <= 0 {
		return errors.New("groupby: KeyBytes must be positive")
	}
	if in.Wide() {
		if len(in.WideKeys) != in.NumRows {
			return fmt.Errorf("groupby: %d wide keys for %d rows", len(in.WideKeys), in.NumRows)
		}
		for i, k := range in.WideKeys {
			if len(k) != in.KeyBytes {
				return fmt.Errorf("groupby: wide key %d has %d bytes, want %d", i, len(k), in.KeyBytes)
			}
		}
	} else {
		if len(in.Keys) != in.NumRows {
			return fmt.Errorf("groupby: %d keys for %d rows", len(in.Keys), in.NumRows)
		}
		for i, k := range in.Keys {
			if k == EmptyKey {
				return fmt.Errorf("groupby: key %d collides with the empty sentinel", i)
			}
		}
	}
	if len(in.Hashes) != in.NumRows {
		return fmt.Errorf("groupby: %d hashes for %d rows", len(in.Hashes), in.NumRows)
	}
	if len(in.Payloads) != len(in.Aggs) {
		return fmt.Errorf("groupby: %d payload columns for %d aggregates", len(in.Payloads), len(in.Aggs))
	}
	for i, a := range in.Aggs {
		if a.Kind == Count {
			if in.Payloads[i] != nil {
				return fmt.Errorf("groupby: COUNT aggregate %d must have nil payload", i)
			}
			continue
		}
		if len(in.Payloads[i]) != in.NumRows {
			return fmt.Errorf("groupby: payload %d has %d rows, want %d", i, len(in.Payloads[i]), in.NumRows)
		}
		if a.Type != columnar.Int64 && a.Type != columnar.Float64 {
			return fmt.Errorf("groupby: aggregate %d has unsupported payload type %v", i, a.Type)
		}
	}
	return nil
}

// KeyWords returns the per-slot key width in 64-bit words.
func (in *Input) KeyWords() int { return (in.KeyBytes + 7) / 8 }

// EntryWords returns the hash-table slot width in words: key words plus
// one accumulator word per aggregate, padded per the device's 16-byte
// alignment rule (Section 4.3.1's padding column).
func (in *Input) EntryWords() int {
	w := in.KeyWords() + len(in.Aggs)
	if w%2 != 0 {
		w++ // pad to 16-byte alignment
	}
	return w
}

// Result is a completed group-by: one entry per group.
type Result struct {
	// Groups is the number of distinct groups found.
	Groups int
	// Keys holds the packed key per group (narrow path).
	Keys []uint64
	// WideKeys holds the concatenated key per group (wide path).
	WideKeys [][]byte
	// AggWords holds, per aggregate, the raw accumulator per group.
	AggWords [][]uint64
	// Stats describes how the task executed.
	Stats ExecStats
}

// Path identifies where a group-by executed.
type Path int

// Execution paths.
const (
	// PathCPU is the host-only LGHT chain.
	PathCPU Path = iota
	// PathGPU is a device kernel.
	PathGPU
)

func (p Path) String() string {
	if p == PathCPU {
		return "cpu"
	}
	return "gpu"
}

// ExecStats reports how a group-by ran and its modeled time split.
type ExecStats struct {
	Path   Path
	Kernel string
	// Retried counts table-full retries taken by the error path
	// (Section 4.2: the estimate may be low; the query must still run).
	Retried int
	// Raced lists kernels raced by the moderator (including the winner).
	Raced []string

	// TransferIn/KernelTime/TransferOut split the modeled device path;
	// HostTime is host-side work (staging, or the whole CPU path).
	TransferIn  vtime.Duration
	KernelTime  vtime.Duration
	TransferOut vtime.Duration
	HostTime    vtime.Duration
	// Modeled is the end-to-end modeled duration.
	Modeled vtime.Duration
}
