package embed

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// Config parameterizes an IVF index. The zero value gets defaults.
type Config struct {
	// NLists is the number of coarse k-means centroids (inverted lists).
	// Zero means 64.
	NLists int
	// TrainSize is how many vectors are buffered before the one-shot
	// k-means training runs. Until then the index is a single flat list
	// (probing it scans everything — exact candidate generation). Zero
	// means 64·NLists. Training happens exactly once; the coarse
	// centroids never move afterwards, so an index rebuilt from the same
	// vector stream is bit-identical to one maintained incrementally.
	TrainSize int
	// KMeansIters is the number of Lloyd iterations. Zero means 6.
	KMeansIters int
	// TrainAttempts is how many independent k-means++ seedings are run;
	// the lowest-quantization-error result wins (ties keep the earlier
	// attempt). Lloyd can never merge or split clusters after seeding,
	// so restarts are the cheap insurance against a bad draw. Zero
	// means 3.
	TrainAttempts int
	// Seed drives the k-means++ seeding. The same seed and vector stream
	// always produce the same index.
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.NLists <= 0 {
		c.NLists = 64
	}
	if c.TrainSize <= 0 {
		c.TrainSize = 64 * c.NLists
	}
	if c.TrainSize < c.NLists {
		c.TrainSize = c.NLists
	}
	if c.KMeansIters <= 0 {
		c.KMeansIters = 6
	}
	if c.TrainAttempts <= 0 {
		c.TrainAttempts = 3
	}
	return c
}

// IVF is an inverted-file flat vector index: NLists coarse centroids,
// each owning a contiguous float32 block of the vectors assigned to it.
// A query ranks the centroids by L2 and visits the nprobe nearest lists;
// every member of a probed list is a candidate — there is no within-list
// cut, so probing all lists yields the whole corpus and downstream
// recall against the exact reranker is monotone in nprobe.
//
// IVF is not safe for concurrent use; the owner serializes access (the
// core database guards it with the ingest lock and snapshots it for
// queries).
type IVF struct {
	cfg     Config
	trained bool
	// centroids is NLists·Dim, row-major; nil until trained.
	centroids []float32
	// vecs[l] is the contiguous block of list l's vectors; ids[l] the
	// matching external IDs in insertion order.
	vecs [][]float32
	ids  [][]int32
	// pending buffers the pre-training stream in insertion order.
	pending    []float32
	pendingIDs []int32
	count      int
}

// NewIVF creates an empty index.
func NewIVF(cfg Config) *IVF {
	return &IVF{cfg: cfg.withDefaults()}
}

// Len returns the number of indexed vectors.
func (x *IVF) Len() int { return x.count }

// Trained reports whether the coarse quantizer has been built.
func (x *IVF) Trained() bool { return x.trained }

// NLists returns the number of probeable lists: 1 while the index is an
// untrained flat buffer, the configured list count afterwards.
func (x *IVF) NLists() int {
	if !x.trained {
		return 1
	}
	return x.cfg.NLists
}

// Add appends one vector under an external ID. Vectors must be Dim
// long. Crossing TrainSize triggers the one-shot k-means build.
//
// The return values let callers maintain per-list sidecar state aligned
// with the member order Probe reports: list is the inverted list the
// vector joined (-1 while the index is an untrained flat buffer), and
// retrained reports that this Add fired the one-shot training — every
// buffered vector was just redistributed, so any sidecar must be rebuilt
// from VisitLists.
func (x *IVF) Add(id int32, v []float32) (list int, retrained bool) {
	if len(v) != Dim {
		panic(fmt.Sprintf("embed: Add vector of dim %d, want %d", len(v), Dim))
	}
	if x.trained {
		l := x.nearestCentroid(v)
		x.vecs[l] = append(x.vecs[l], v...)
		x.ids[l] = append(x.ids[l], id)
		x.count++
		return l, false
	}
	x.pending = append(x.pending, v...)
	x.pendingIDs = append(x.pendingIDs, id)
	x.count++
	if x.count >= x.cfg.TrainSize {
		x.train()
		return -1, true
	}
	return -1, false
}

// Probe ranks the lists by centroid distance to v and calls visit once
// per probed list, nearest first, with the list's index and member IDs
// in insertion order (an untrained index reports its flat buffer as
// list -1). The slice is a view into the index — callers must not
// retain or mutate it. Ties rank by list ID ascending, so the probe
// order is deterministic. nprobe < 1 probes one list; nprobe beyond the
// list count probes everything.
func (x *IVF) Probe(v []float32, nprobe int, visit func(list int, ids []int32)) {
	if nprobe < 1 {
		nprobe = 1
	}
	if !x.trained {
		visit(-1, x.pendingIDs)
		return
	}
	if nprobe > x.cfg.NLists {
		nprobe = x.cfg.NLists
	}
	order := x.rankLists(v, nprobe)
	for _, l := range order {
		visit(int(l), x.ids[l])
	}
}

// VisitLists calls visit once per inverted list with its members in
// insertion order — the full-index counterpart of Probe, for rebuilding
// sidecar state after training or a snapshot load. An untrained index
// reports its flat buffer as list -1. Slices are views; callers must not
// retain or mutate them.
func (x *IVF) VisitLists(visit func(list int, ids []int32)) {
	if !x.trained {
		visit(-1, x.pendingIDs)
		return
	}
	for l := range x.ids {
		visit(l, x.ids[l])
	}
}

// rankLists returns the nprobe nearest list indices, nearest first,
// ties by list ID. The selection is a bounded insertion sort — nprobe
// is small, so this beats sorting all NLists distances.
func (x *IVF) rankLists(v []float32, nprobe int) []int32 {
	type cand struct {
		d float32
		l int32
	}
	best := make([]cand, 0, nprobe)
	for l := 0; l < x.cfg.NLists; l++ {
		d := l2sq(v, x.centroids[l*Dim:(l+1)*Dim])
		if len(best) == nprobe && d >= best[nprobe-1].d {
			continue
		}
		i := sort.Search(len(best), func(i int) bool {
			return best[i].d > d // ties keep earlier (lower) list IDs first
		})
		if len(best) < nprobe {
			best = append(best, cand{})
		}
		copy(best[i+1:], best[i:])
		best[i] = cand{d: d, l: int32(l)}
	}
	out := make([]int32, len(best))
	for i, c := range best {
		out[i] = c.l
	}
	return out
}

func (x *IVF) nearestCentroid(v []float32) int {
	best, bd := 0, l2sq(v, x.centroids[:Dim])
	for l := 1; l < x.cfg.NLists; l++ {
		if d := l2sq(v, x.centroids[l*Dim:(l+1)*Dim]); d < bd {
			best, bd = l, d
		}
	}
	return best
}

// train runs the one-shot coarse k-means over the pending buffer:
// TrainAttempts independent seedings, each k-means++ D² sampling plus
// KMeansIters Lloyd rounds (assignment ties to the lower centroid,
// empty centroids re-seeded from the vector farthest from its
// assignment), lowest total quantization error wins; then the buffer is
// flushed into the lists in insertion order. Everything is driven by
// Config.Seed — the same stream always trains the same quantizer.
func (x *IVF) train() {
	n := len(x.pendingIDs)
	k := x.cfg.NLists
	rng := rand.New(rand.NewSource(x.cfg.Seed))
	vec := func(i int) []float32 { return x.pending[i*Dim : (i+1)*Dim] }

	var best []float32
	bestSSE := math.Inf(1)
	for a := 0; a < x.cfg.TrainAttempts; a++ {
		cents, sse := x.trainOnce(rng, n, vec)
		if sse < bestSSE {
			best, bestSSE = cents, sse
		}
	}

	x.centroids = best
	x.vecs = make([][]float32, k)
	x.ids = make([][]int32, k)
	x.trained = true
	for i := 0; i < n; i++ {
		l := x.nearestCentroid(vec(i))
		x.vecs[l] = append(x.vecs[l], vec(i)...)
		x.ids[l] = append(x.ids[l], x.pendingIDs[i])
	}
	x.pending = nil
	x.pendingIDs = nil
}

// trainOnce is one seeding + Lloyd run; it returns the centroids and
// their total quantization error over the training buffer.
func (x *IVF) trainOnce(rng *rand.Rand, n int, vec func(int) []float32) ([]float32, float64) {
	k := x.cfg.NLists
	cents := make([]float32, k*Dim)
	copy(cents[:Dim], vec(rng.Intn(n)))
	minD := make([]float64, n)
	var sum float64
	for i := 0; i < n; i++ {
		minD[i] = float64(l2sq(vec(i), cents[:Dim]))
		sum += minD[i]
	}
	for c := 1; c < k; c++ {
		pick := n - 1
		if sum > 0 {
			r := rng.Float64() * sum
			var acc float64
			for i := 0; i < n; i++ {
				acc += minD[i]
				if acc >= r {
					pick = i
					break
				}
			}
		} else {
			pick = rng.Intn(n)
		}
		copy(cents[c*Dim:(c+1)*Dim], vec(pick))
		if c == k-1 {
			break
		}
		sum = 0
		for i := 0; i < n; i++ {
			if d := float64(l2sq(vec(i), cents[c*Dim:(c+1)*Dim])); d < minD[i] {
				minD[i] = d
			}
			sum += minD[i]
		}
	}

	assign := make([]int32, n)
	counts := make([]int32, k)
	acc := make([]float64, k*Dim)
	var sse float64
	for iter := 0; iter < x.cfg.KMeansIters; iter++ {
		for i := range counts {
			counts[i] = 0
		}
		for i := range acc {
			acc[i] = 0
		}
		sse = 0
		for i := 0; i < n; i++ {
			v := vec(i)
			best, bd := 0, l2sq(v, cents[:Dim])
			for l := 1; l < k; l++ {
				if d := l2sq(v, cents[l*Dim:(l+1)*Dim]); d < bd {
					best, bd = l, d
				}
			}
			assign[i] = int32(best)
			counts[best]++
			sse += float64(bd)
			row := acc[best*Dim : (best+1)*Dim]
			for j, f := range v {
				row[j] += float64(f)
			}
		}
		for l := 0; l < k; l++ {
			if counts[l] == 0 {
				// Re-seed from the vector farthest from its centroid —
				// deterministic, and it peels a point off the densest
				// spread instead of leaving a dead list.
				far, fd := 0, float32(-1)
				for i := 0; i < n; i++ {
					c := assign[i]
					if d := l2sq(vec(i), cents[int(c)*Dim:(int(c)+1)*Dim]); d > fd {
						far, fd = i, d
					}
				}
				copy(cents[l*Dim:(l+1)*Dim], vec(far))
				continue
			}
			row := acc[l*Dim : (l+1)*Dim]
			out := cents[l*Dim : (l+1)*Dim]
			inv := 1 / float64(counts[l])
			for j := range out {
				out[j] = float32(row[j] * inv)
			}
		}
	}
	return cents, sse
}

// Snapshot is the persistable form of an IVF index (gob-friendly:
// exported fields, flat slices).
type Snapshot struct {
	Config    Config
	Trained   bool
	Centroids []float32
	ListVecs  [][]float32
	ListIDs   [][]int32
	Pending   []float32
	PendingID []int32
	Count     int
}

// Snapshot deep-copies the index state.
func (x *IVF) Snapshot() *Snapshot {
	s := &Snapshot{
		Config:    x.cfg,
		Trained:   x.trained,
		Centroids: append([]float32(nil), x.centroids...),
		Pending:   append([]float32(nil), x.pending...),
		PendingID: append([]int32(nil), x.pendingIDs...),
		Count:     x.count,
	}
	if x.trained {
		s.ListVecs = make([][]float32, len(x.vecs))
		s.ListIDs = make([][]int32, len(x.ids))
		for l := range x.vecs {
			s.ListVecs[l] = append([]float32(nil), x.vecs[l]...)
			s.ListIDs[l] = append([]int32(nil), x.ids[l]...)
		}
	}
	return s
}

// FromSnapshot reconstructs an IVF index.
func FromSnapshot(s *Snapshot) (*IVF, error) {
	cfg := s.Config.withDefaults()
	x := &IVF{cfg: cfg, trained: s.Trained, count: s.Count}
	if s.Trained {
		if len(s.Centroids) != cfg.NLists*Dim {
			return nil, fmt.Errorf("embed: snapshot holds %d centroid floats, want %d", len(s.Centroids), cfg.NLists*Dim)
		}
		if len(s.ListVecs) != cfg.NLists || len(s.ListIDs) != cfg.NLists {
			return nil, fmt.Errorf("embed: snapshot holds %d/%d lists, want %d", len(s.ListVecs), len(s.ListIDs), cfg.NLists)
		}
		x.centroids = append([]float32(nil), s.Centroids...)
		x.vecs = make([][]float32, cfg.NLists)
		x.ids = make([][]int32, cfg.NLists)
		total := 0
		for l := range s.ListVecs {
			if len(s.ListVecs[l]) != len(s.ListIDs[l])*Dim {
				return nil, fmt.Errorf("embed: snapshot list %d: %d floats for %d ids", l, len(s.ListVecs[l]), len(s.ListIDs[l]))
			}
			x.vecs[l] = append([]float32(nil), s.ListVecs[l]...)
			x.ids[l] = append([]int32(nil), s.ListIDs[l]...)
			total += len(s.ListIDs[l])
		}
		if total != s.Count {
			return nil, fmt.Errorf("embed: snapshot lists hold %d vectors, count says %d", total, s.Count)
		}
		return x, nil
	}
	if len(s.Pending) != len(s.PendingID)*Dim || len(s.PendingID) != s.Count {
		return nil, fmt.Errorf("embed: snapshot pending buffer %d floats / %d ids / count %d disagree", len(s.Pending), len(s.PendingID), s.Count)
	}
	x.pending = append([]float32(nil), s.Pending...)
	x.pendingIDs = append([]int32(nil), s.PendingID...)
	return x, nil
}
