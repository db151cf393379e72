package dist

import (
	"math"
	"sync"
)

// This file implements the batched EGED_M kernel for columnar leaf scans:
// one query is prepared once (BatchQuery), then streamed against many
// candidate Blocks through a reused arena (Batch) with per-candidate
// thresholds. Relative to calling EGEDWithUB per pair, the batch form
//
//   - hoists the query-side gap costs: under GapConstant, every row i of
//     every candidate's DP pays gapCost(a_i, g) twice (cur[0] and the gapA
//     arm); the batch computes Norm(a_i, g) once per query instead of once
//     per cell — the identical float64, just not recomputed;
//   - hoists the candidate-side gap costs the same way (once per candidate
//     row instead of once per DP row);
//   - keeps all scratch (two rolling rows + the gap-cost rows) in one
//     arena owned by the caller, eliminating the per-pair sync.Pool
//     round-trip.
//
// Per DP cell the inner loop drops from three Norm calls (three sqrts) to
// one, and for 2-D input — every sequence the system itself produces —
// to one inlined sqrt and a branch-free minimum (distance2). Because a hoisted value is the result of the same Norm call the
// per-pair kernel would make — merely cached — every cell value, every
// row minimum, the abandon decision, and the returned distance are
// bit-for-bit identical to EGEDWithUB(a, b, GapConstant, g, ub). The
// totalEvals / dpCells accounting is replicated exactly as well, so
// SearchStats and the benchmark counters cannot tell the kernels apart.

// BatchQuery is the immutable, shareable half of a batched computation:
// the query block, the resolved constant gap, and the hoisted per-row gap
// costs ga[i] = |a_i − g|. One BatchQuery may feed any number of Batch
// arenas concurrently.
type BatchQuery struct {
	q  Block
	g  Vec // resolved; nil only when the query is empty and no g was given
	ga []float64
	// planar reports that the query side qualifies for the dimension-2
	// body (see distance2): 2-D samples, a 2-D gap, every ga finite.
	planar bool
}

// NewBatchQuery prepares a query block for batched evaluation under the
// constant-gap (EGED_M) model. A nil g means the zero vector, resolved
// against the query's dimension exactly as EGEDWithUB resolves it (when
// the query is empty the resolution is deferred to each candidate, again
// matching the per-pair kernel's dim fallback).
func NewBatchQuery(q Block, g Vec) *BatchQuery {
	bq := &BatchQuery{q: q, g: g}
	if bq.g == nil && q.Len() > 0 {
		bq.g = zeroVec(q.Dim())
	}
	if q.Len() > 0 {
		bq.ga = make([]float64, q.Len())
		bq.planar = q.Dim() == 2 && len(bq.g) == 2
		for i := range bq.ga {
			bq.ga[i] = Norm(q.Row(i), bq.g)
			if !isFinite(bq.ga[i]) {
				bq.planar = false
			}
		}
	}
	return bq
}

// isFinite reports whether x is neither NaN nor ±Inf (every comparison
// with NaN is false).
func isFinite(x float64) bool { return x >= -math.MaxFloat64 && x <= math.MaxFloat64 }

// Batch is the per-goroutine scratch arena of a batched computation: the
// two rolling DP rows plus the candidate gap-cost row, grown once and
// reused across every candidate streamed through it. A Batch must not be
// shared between goroutines: take one per scan, from NewBatch or — when
// scans are frequent — from the pool behind Acquire.
type Batch struct {
	bq        *BatchQuery
	prev, cur []float64
	gb        []float64
}

// NewBatch returns a fresh scratch arena bound to the query.
func (bq *BatchQuery) NewBatch() *Batch { return &Batch{bq: bq} }

// batchPool recycles arenas across queries: an arena holds no query
// state beyond its binding, so one pool serves every prepared query in
// the process and a steady query load allocates no DP rows at all.
var batchPool = sync.Pool{New: func() any { return new(Batch) }}

// Acquire returns a pooled arena bound to the query. The caller owns it
// until Release; like any Batch it must not be shared between goroutines.
func (bq *BatchQuery) Acquire() *Batch {
	b := batchPool.Get().(*Batch)
	b.bq = bq
	return b
}

// Release returns an acquired arena to the pool. The arena must not be
// used afterwards. Releasing a nil arena is a no-op, so scans that may
// run without one (a cascade with no batched kernel) can defer it.
func (b *Batch) Release() {
	if b == nil {
		return
	}
	b.bq = nil
	batchPool.Put(b)
}

// DistanceUB evaluates one candidate through a pooled arena — the form
// for callers that hold many prepared queries and meet candidates one at
// a time (a standing query per subscription), where an arena per query
// would be memory for nothing. Safe for concurrent use; identical to
// Batch.DistanceUB in result, abandon decision and accounting.
func (bq *BatchQuery) DistanceUB(c Block, ub float64) (d float64, abandoned bool) {
	b := bq.Acquire()
	d, abandoned = b.DistanceUB(c, ub)
	b.Release()
	return d, abandoned
}

// rows sizes the arena for a candidate of length n.
func (b *Batch) rows(n int) {
	if cap(b.prev) < n+1 {
		b.prev = make([]float64, n+1)
		b.cur = make([]float64, n+1)
	}
	b.prev, b.cur = b.prev[:n+1], b.cur[:n+1]
	if cap(b.gb) < n {
		b.gb = make([]float64, n)
	}
	b.gb = b.gb[:n]
}

// DistanceUB evaluates EGED_M(query, c) with early row abandoning at ub —
// bit-for-bit identical, in result, abandon decision, and eval/cell
// accounting, to EGEDWithUB(query, c, GapConstant, g, ub).
func (b *Batch) DistanceUB(c Block, ub float64) (d float64, abandoned bool) {
	totalEvals.Add(1)
	bq := b.bq
	m, n := bq.q.Len(), c.Len()
	if m == 0 && n == 0 {
		return 0, false
	}
	if bq.planar && c.dim == 2 {
		if d, abandoned, ok := b.distance2(c, ub); ok {
			return d, abandoned
		}
	}
	g := bq.g
	if g == nil {
		// Empty query with no explicit gap: EGEDWithUB falls back to the
		// candidate's dimension for the zero reference.
		g = zeroVec(c.Dim())
	}
	b.rows(n)
	prev, cur, gb := b.prev, b.cur, b.gb
	prev[0] = 0
	for j := 1; j <= n; j++ {
		gb[j-1] = Norm(c.Row(j-1), g)
		prev[j] = prev[j-1] + gb[j-1]
	}
	ga := bq.ga
	for i := 1; i <= m; i++ {
		gai := ga[i-1]
		ai := bq.q.Row(i - 1)
		cur[0] = prev[0] + gai
		rowMin := cur[0]
		for j := 1; j <= n; j++ {
			match := prev[j-1] + Norm(ai, c.Row(j-1))
			gapA := prev[j] + gai
			gapB := cur[j-1] + gb[j-1]
			cur[j] = math.Min(match, math.Min(gapA, gapB))
			if cur[j] < rowMin {
				rowMin = cur[j]
			}
		}
		prev, cur = cur, prev
		if rowMin > ub {
			b.prev, b.cur = prev, cur
			dpCells.Add(int64(n) + int64(i)*int64(n+1))
			return rowMin, true
		}
	}
	b.prev, b.cur = prev, cur
	dpCells.Add(int64(n) + int64(m)*int64(n+1))
	return prev[n], false
}

// distance2 is DistanceUB's body for the shape the system actually runs:
// 2-D samples on both sides (region centroids "throughout the
// experiments") and finite gap costs. It indexes the two flat buffers
// directly — no Row slices, no Norm call, one sqrt per cell — and takes
// the three-way minimum with the min builtin, which amd64 and arm64
// compile to a branch-free compare-and-select, instead of a call to
// math.Min (assembly the compiler cannot inline). Branch-free matters:
// which arm wins is data, and on a stream of distinct candidates a
// compare-and-branch form mispredicts its way to 7 ns/cell where this
// one holds under 5 (and a two-pass split of the row, independent pass
// then min-plus scan, measured slower than either).
//
// Bit-identity with the generic loop: each |x − y| below performs Norm's
// operations in Norm's order (0 + dx·dx is dx·dx exactly, then + dy·dy,
// then sqrt), so every match and gap cost is the same float64. With all
// gap costs finite the coordinates are finite, so no cost is NaN; costs
// are sqrt of a sum of squares, hence ≥ +0, and cells only add them to
// +0, so no cell is NaN or −0. On such values math.Min and min both
// return the smaller operand, or either when they are equal — and equal
// values without a ±0 pair have equal bits.
//
// ok is false when a candidate gap cost is not finite (NaN, ±Inf or
// overflowing input): the caller then runs the generic loop, because
// math.Min answers a NaN operand with one fixed NaN while min may pass
// the operand's own bits through. The candidate's gap sum, which the
// base row computes anyway, carries the test: it is finite only if every
// term is.
func (b *Batch) distance2(c Block, ub float64) (d float64, abandoned, ok bool) {
	bq := b.bq
	m, n := bq.q.n, c.n
	b.rows(n)
	prev, cur, gb := b.prev, b.cur, b.gb
	qd, cd, ga := bq.q.data[:2*m], c.data[:2*n], bq.ga[:m]
	g0, g1 := bq.g[0], bq.g[1]
	base := 0.0
	prev[0] = 0
	for j := range gb {
		dx, dy := cd[2*j]-g0, cd[2*j+1]-g1
		s := dx * dx
		s += dy * dy
		gb[j] = math.Sqrt(s)
		base += gb[j]
		prev[j+1] = base
	}
	if !isFinite(base) {
		return 0, false, false
	}
	for i, gai := range ga {
		ax, ay := qd[2*i], qd[2*i+1]
		diag := prev[0]
		left := diag + gai
		cur[0] = left
		rowMin := left
		for j, gbj := range gb {
			dx, dy := ax-cd[2*j], ay-cd[2*j+1]
			s := dx * dx
			s += dy * dy
			match := diag + math.Sqrt(s)
			diag = prev[j+1]
			best := min(match, diag+gai, left+gbj)
			cur[j+1] = best
			left = best
			rowMin = min(rowMin, best)
		}
		prev, cur = cur, prev
		if rowMin > ub {
			b.prev, b.cur = prev, cur
			dpCells.Add(int64(n) + int64(i+1)*int64(n+1))
			return rowMin, true, true
		}
	}
	b.prev, b.cur = prev, cur
	dpCells.Add(int64(n) + int64(m)*int64(n+1))
	return prev[n], false, true
}

// BatchCascade is an optional Cascade extension for metrics with a
// batched columnar kernel. BatchQuery prepares a query for streaming
// against candidate Blocks; the resulting Batch.DistanceUB must be
// bit-identical to the cascade's DistanceUB on the corresponding
// sequences. Search code type-asserts to it; cascades without it run the
// per-pair kernel.
type BatchCascade interface {
	Cascade
	BatchQuery(a Sequence) *BatchQuery
}

func (c egedmCascade) BatchQuery(a Sequence) *BatchQuery {
	return NewBatchQuery(FromSequence(a), c.g)
}
