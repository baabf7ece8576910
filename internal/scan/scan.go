// Package scan is the fused single-pass aggregation engine. Analyses
// register kernels; the engine runs every registered kernel over each
// cache-sized block of a struct-of-arrays column view in one pass, so a
// suite of N analyses costs one sweep of memory traffic instead of N.
//
// # Kernel contract
//
// A Kernel is a factory for per-shard States. The engine calls NewState
// once per shard, feeds each state the shard's rows in block-sized chunks
// via ProcessBlock(view, lo, hi), and then reduces the shard states with a
// deterministic in-order pairwise tree of Merge calls. ProcessBlock must
// only touch rows [lo, hi) and must not retain the view; Merge must fold
// the other state into the receiver assuming other covers the rows
// immediately after the receiver's. Kernel finishing (turning the merged
// state into an analysis result) is the caller's job.
//
// # Determinism
//
// The shard plan is a pure function of the row count — ShardRows is fixed
// and does not depend on the worker count — so the set of partial states
// is identical for any parallelism. The reduction always merges neighbors
// in index order (state i absorbs state i+stride), so the merged state is
// the same fold for 1 worker or 64. Kernels whose Merge is associative
// over adjacent ranges therefore produce bit-identical results at any
// worker count; kernels that accumulate in integers (the house style, see
// DESIGN.md §13) are additionally immune to floating-point reassociation.
package scan

import (
	"context"
	"fmt"

	"repro/internal/bitmap"
	"repro/internal/par"
)

// Shard and block geometry. A shard is the unit of parallelism; a block is
// the unit of cache reuse: every kernel processes one block before the
// engine moves to the next, so the block's columns stay hot across all
// kernels. The values are fixed — NOT derived from GOMAXPROCS — because
// the shard plan is part of the determinism contract.
const (
	// ShardRows is the number of rows per parallel shard.
	ShardRows = 8192
	// BlockRows is the number of rows each ProcessBlock call sees. At
	// roughly 10 hot columns × 8 bytes, a 2048-row block is ~160 KiB —
	// comfortably L2-resident while every kernel takes its turn.
	BlockRows = 2048
)

// State is one kernel's partial aggregate over a contiguous row range.
type State[V any] interface {
	// ProcessBlock folds rows [lo, hi) of the view into the state.
	ProcessBlock(v V, lo, hi int)
	// Merge folds other — the state covering the rows immediately after
	// the receiver's — into the receiver.
	Merge(other State[V])
}

// Kernel is a registered analysis: a named factory for shard states.
type Kernel[V any] interface {
	// Name identifies the kernel in diagnostics.
	Name() string
	// NewState returns a fresh zero-valued partial aggregate.
	NewState() State[V]
}

// Run sweeps the rows of [0, n) set in sel once, feeding every kernel each
// block, with shards fanned out over at most workers goroutines (≤ 0 means
// GOMAXPROCS). A nil sel selects every row. It returns one fully merged
// state per kernel, in kernel order. Results are bit-identical for any
// worker count.
//
// Every kernel sees exactly the selected rows, in ascending order, as
// ProcessBlock calls over the maximal selected runs of each block. The
// shard plan stays a pure function of the total row count n — NOT of the
// selection — so the partial-state layout and the merge tree are the same
// for every selection. Blocks with no selected rows are skipped without
// touching the view's columns; a fully selected block, and every block of a
// nil selection, issues the single ProcessBlock(v, blockLo, blockHi) call,
// so pushdown costs nothing where the predicate is dense (DESIGN.md §14).
func Run[V any](v V, n int, sel *bitmap.Bitmap, kernels []Kernel[V], workers int) ([]State[V], error) {
	if n < 0 {
		return nil, fmt.Errorf("scan: negative row count %d", n)
	}
	newStates := func() []State[V] {
		sts := make([]State[V], len(kernels))
		for i, k := range kernels {
			sts[i] = k.NewState()
		}
		return sts
	}
	// The run buffer is per shard task: par.ForEach hands each worker
	// disjoint shards, so no sharing. A nil selection yields one run per
	// block; a bitmap's worst case is a 2048-row block of 1024 singleton
	// runs.
	runCap := BlockRows / 2
	if sel == nil {
		runCap = 1
	}
	shards := (n + ShardRows - 1) / ShardRows
	if shards <= 1 {
		// Serial fast path (also the empty-view path): one state set, one
		// block loop, no merge.
		sts := newStates()
		processShard(v, 0, n, sel, make([]bitmap.Run, 0, runCap), sts)
		return sts, nil
	}
	states := make([][]State[V], shards)
	err := par.ForEach(context.Background(), shards, workers, func(s int) error {
		lo := s * ShardRows
		hi := min(lo+ShardRows, n)
		sts := newStates()
		processShard(v, lo, hi, sel, make([]bitmap.Run, 0, runCap), sts)
		states[s] = sts
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("scan: %w", err)
	}
	// Deterministic in-order pairwise tree merge: state i absorbs state
	// i+stride, doubling the stride until shard 0 holds the total. The
	// merge order is a pure function of the shard count, so the fold is
	// identical no matter how the shards were scheduled.
	for stride := 1; stride < shards; stride *= 2 {
		for i := 0; i+stride < shards; i += 2 * stride {
			for k := range kernels {
				states[i][k].Merge(states[i+stride][k])
			}
		}
	}
	return states[0], nil
}

// processShard feeds each block's selected runs to every state, one block
// at a time so the block's columns stay cache-hot across kernels. The
// block-skip test and the run decomposition touch only the selection
// bitmap, never the view's columns.
//
//mira:hotpath
func processShard[V any](v V, lo, hi int, sel *bitmap.Bitmap, runs []bitmap.Run, sts []State[V]) {
	for blo := lo; blo < hi; blo += BlockRows {
		bhi := min(blo+BlockRows, hi)
		if sel == nil {
			runs = append(runs[:0], bitmap.Run{Lo: int32(blo), Hi: int32(bhi)})
		} else {
			runs = sel.AppendBlockRuns(runs[:0], blo, bhi)
		}
		for _, st := range sts {
			for _, r := range runs {
				st.ProcessBlock(v, int(r.Lo), int(r.Hi))
			}
		}
	}
}
