package index

import (
	"context"
	"math"
	"sync"
	"testing"

	"strgindex/internal/dist"
	"strgindex/internal/graph"
)

// buildCascadeTree builds a deterministic tree, letting the caller adjust
// the cascade/cache knobs before construction.
func buildCascadeTree(t *testing.T, seqs []dist.Sequence, workers int, mut func(*Config)) *Tree[int] {
	t.Helper()
	cfg := Config{NumClusters: 5, Seed: 11, MaxLeafEntries: 16, Concurrency: workers}
	if mut != nil {
		mut(&cfg)
	}
	tr := New[int](cfg)
	items := make([]Item[int], len(seqs))
	for i, s := range seqs {
		items[i] = Item[int]{Seq: s, Payload: i}
	}
	if err := tr.AddSegment(nil, items); err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestCascadeOnOffByteIdentical is the tentpole's core acceptance check:
// with the filter-and-refine cascade disabled (every candidate pays the
// exact metric) and enabled (lower bounds + early abandoning + pruning),
// every search mode returns byte-identical results at every worker count.
func TestCascadeOnOffByteIdentical(t *testing.T) {
	seqs := detSequences(150, 71)
	queries := detSequences(12, 72)
	ref := buildCascadeTree(t, seqs, 1, func(c *Config) { c.DisableCascade = true })
	for _, workers := range []int{0, 1, 2, 4} {
		tr := buildCascadeTree(t, seqs, workers, nil)
		for qi, q := range queries {
			for _, k := range []int{1, 5, 20} {
				sameResults(t, labelf("workers=%d q=%d k=%d KNN", workers, qi, k),
					tr.KNN(nil, q, k), ref.KNN(nil, q, k))
				sameResults(t, labelf("workers=%d q=%d k=%d KNNExact", workers, qi, k),
					tr.KNNExact(nil, q, k), ref.KNNExact(nil, q, k))
			}
			for _, radius := range []float64{30, 150, 500} {
				sameResults(t, labelf("workers=%d q=%d r=%v Range", workers, qi, radius),
					tr.Range(nil, q, radius), ref.Range(nil, q, radius))
			}
		}
	}
}

// TestCascadeDTWByteIdentical runs the same check for the DTW cascade —
// its bounds (LB_Kim, LB_Keogh box) are different code paths.
func TestCascadeDTWByteIdentical(t *testing.T) {
	seqs := detSequences(100, 73)
	queries := detSequences(8, 74)
	ref := buildCascadeTree(t, seqs, 1, func(c *Config) {
		c.Cascade = dist.DTWCascade()
		c.DisableCascade = true
	})
	tr := buildCascadeTree(t, seqs, 2, func(c *Config) { c.Cascade = dist.DTWCascade() })
	for qi, q := range queries {
		sameResults(t, labelf("q=%d KNNExact", qi), tr.KNNExact(nil, q, 7), ref.KNNExact(nil, q, 7))
		sameResults(t, labelf("q=%d Range", qi), tr.Range(nil, q, 200), ref.Range(nil, q, 200))
	}
}

// TestSearchStatsAccounting: every record entering the cascade is disposed
// of by exactly one stage.
func TestSearchStatsAccounting(t *testing.T) {
	seqs := detSequences(150, 75)
	tr := buildCascadeTree(t, seqs, 1, nil)
	q := detSequences(1, 76)[0]
	for name, st := range map[string]SearchStats{
		"knn":   statsOf(t, tr, q, false),
		"exact": statsOf(t, tr, q, true),
	} {
		if st.Records == 0 {
			t.Fatalf("%s: no records entered the cascade", name)
		}
		disposed := st.CacheHits + st.LBQuickPruned + st.LBEnvelopePruned + st.DPEvaluated + st.DPAbandoned
		if disposed != st.Records {
			t.Fatalf("%s: dispositions %d != records %d (%+v)", name, disposed, st.Records, st)
		}
		if st.DPEvaluated == 0 {
			t.Fatalf("%s: nothing fully evaluated — the result set came from nowhere (%+v)", name, st)
		}
		if st.LBPruned() != st.LBQuickPruned+st.LBEnvelopePruned {
			t.Fatalf("%s: LBPruned() inconsistent (%+v)", name, st)
		}
	}
}

func statsOf(t *testing.T, tr *Tree[int], q dist.Sequence, exact bool) SearchStats {
	t.Helper()
	var st SearchStats
	var err error
	if exact {
		_, st, err = tr.KNNExactStatsCtx(context.Background(), nil, q, 5)
	} else {
		_, st, err = tr.KNNStatsCtx(context.Background(), nil, q, 5)
	}
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestCascadeReducesDPCells asserts the acceptance bar directly: on a
// workload of clustered trajectories, the cascade evaluates less than half
// the DP cells of the exhaustive exact scan.
func TestCascadeReducesDPCells(t *testing.T) {
	seqs := detSequences(250, 77)
	queries := detSequences(10, 78)
	exact := buildCascadeTree(t, seqs, 1, func(c *Config) { c.DisableCascade = true })
	casc := buildCascadeTree(t, seqs, 1, nil)

	run := func(tr *Tree[int]) int64 {
		before := dist.DPCells()
		for _, q := range queries {
			tr.KNNExact(nil, q, 5)
		}
		return dist.DPCells() - before
	}
	exactCells := run(exact)
	cascCells := run(casc)
	if exactCells == 0 {
		t.Fatal("exact path recorded no DP cells")
	}
	if cascCells*2 > exactCells {
		t.Fatalf("cascade evaluated %d DP cells, exact %d — less than the required 2x reduction",
			cascCells, exactCells)
	}
	t.Logf("DP cells: exact=%d cascade=%d (%.1fx reduction)",
		exactCells, cascCells, float64(exactCells)/float64(cascCells))
}

// mapCache is a minimal DistCache for tests: an unbounded locked map.
type mapCache struct {
	mu   sync.Mutex
	m    map[[2]uint64]float64
	hits int
}

func newMapCache() *mapCache { return &mapCache{m: make(map[[2]uint64]float64)} }

func (c *mapCache) Get(q, s uint64) (float64, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	d, ok := c.m[[2]uint64{q, s}]
	if ok {
		c.hits++
	}
	return d, ok
}

func (c *mapCache) Put(q, s uint64, d float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.m[[2]uint64{q, s}] = d
}

// TestDistCacheByteIdentical: a repeated query is answered (partly) from
// the cache and the results stay byte-identical to the uncached search.
func TestDistCacheByteIdentical(t *testing.T) {
	seqs := detSequences(150, 79)
	queries := detSequences(6, 80)
	ref := buildCascadeTree(t, seqs, 1, nil)
	cache := newMapCache()
	tr := buildCascadeTree(t, seqs, 2, func(c *Config) { c.Cache = cache })

	for round := 0; round < 2; round++ {
		for qi, q := range queries {
			sameResults(t, labelf("round=%d q=%d KNNExact", round, qi),
				tr.KNNExact(nil, q, 8), ref.KNNExact(nil, q, 8))
			sameResults(t, labelf("round=%d q=%d Range", round, qi),
				tr.Range(nil, q, 150), ref.Range(nil, q, 150))
		}
	}
	if cache.hits == 0 {
		t.Fatal("second round hit the cache zero times")
	}
	_, st, err := tr.KNNExactStatsCtx(context.Background(), nil, queries[0], 8)
	if err != nil {
		t.Fatal(err)
	}
	if st.CacheHits == 0 {
		t.Fatalf("stats report no cache hits on a repeated query: %+v", st)
	}
}

func (c *mapCache) reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	clear(c.m)
	c.hits = 0
}

// TestWarmCacheByteIdentical pins the cascade order bounds -> cache -> DP:
// at shards {1, 2, 4}, every search mode answers byte-identically from a
// cache-less tree, a cold cache and a warm one. Sequentially the warm
// pass replays the cold pass's thresholds exactly, so the accounting is
// pinned too: the bounds prune the same records whether or not they are
// cached (a pruned record is never counted as a hit), every DP the cold
// pass completed is a warm hit, and abandoned DPs — never cached — are
// abandoned again.
func TestWarmCacheByteIdentical(t *testing.T) {
	bgs, segs := shardScript(47)
	queries := detSequences(4, 98)
	ctx := context.Background()
	build := func(shards int, cache DistCache) *Sharded[int] {
		s := NewSharded[int](Config{Seed: 11, NumClusters: 2, MaxLeafEntries: 8,
			Concurrency: 1, Shards: shards, Cache: cache})
		for _, sg := range segs {
			if err := s.AddSegment(bgs[sg.bg], sg.items); err != nil {
				t.Fatal(err)
			}
		}
		return s
	}
	modes := []struct {
		name string
		run  func(*Sharded[int], *graph.Graph, dist.Sequence) ([]Result[int], SearchStats, error)
	}{
		{"KNN", func(s *Sharded[int], bg *graph.Graph, q dist.Sequence) ([]Result[int], SearchStats, error) {
			return s.KNNStatsCtx(ctx, bg, q, 5)
		}},
		{"KNNExact", func(s *Sharded[int], bg *graph.Graph, q dist.Sequence) ([]Result[int], SearchStats, error) {
			return s.KNNExactStatsCtx(ctx, bg, q, 9)
		}},
		{"Range", func(s *Sharded[int], bg *graph.Graph, q dist.Sequence) ([]Result[int], SearchStats, error) {
			return s.RangeStatsCtx(ctx, bg, q, 150)
		}},
	}
	for _, shards := range []int{1, 2, 4} {
		cache := newMapCache()
		plain, cached := build(shards, nil), build(shards, cache)
		for _, mode := range modes {
			warmHits := 0
			for b, bg := range bgs {
				for qi, q := range queries {
					sq := q.Clone()
					for _, v := range sq {
						v[0] += 400 * float64(b)
						v[1] += 400 * float64(b)
					}
					label := labelf("shards=%d %s bg=%d q=%d", shards, mode.name, b, qi)
					cache.reset()
					want, wantSt, err := mode.run(plain, bg, sq)
					if err != nil {
						t.Fatal(err)
					}
					cold, coldSt, err := mode.run(cached, bg, sq)
					if err != nil {
						t.Fatal(err)
					}
					warm, warmSt, err := mode.run(cached, bg, sq)
					if err != nil {
						t.Fatal(err)
					}
					sameResults(t, label+" cold", cold, want)
					sameResults(t, label+" warm", warm, want)
					if coldSt != wantSt {
						t.Fatalf("%s: cold-cache stats %+v, cache-less %+v", label, coldSt, wantSt)
					}
					if warmSt.CacheHits > warmSt.Records-warmSt.LBPruned() {
						t.Fatalf("%s: %d cache hits among %d bound survivors (%+v)",
							label, warmSt.CacheHits, warmSt.Records-warmSt.LBPruned(), warmSt)
					}
					wantWarm := coldSt
					wantWarm.CacheHits, wantWarm.DPEvaluated = coldSt.DPEvaluated, 0
					if warmSt != wantWarm {
						t.Fatalf("%s: warm stats %+v, want %+v", label, warmSt, wantWarm)
					}
					warmHits += warmSt.CacheHits
					if mode.name == "Range" {
						continue
					}
					// A cache that holds every record (a wide range query
					// filled it) must not keep the bounds from pruning: the
					// pruned counters match the cache-less run and only the
					// bound survivors are hits.
					if _, _, err := cached.RangeStatsCtx(ctx, bg, sq, 1e9); err != nil {
						t.Fatal(err)
					}
					full, fullSt, err := mode.run(cached, bg, sq)
					if err != nil {
						t.Fatal(err)
					}
					sameResults(t, label+" full cache", full, want)
					wantFull := wantSt
					wantFull.CacheHits = wantSt.DPEvaluated + wantSt.DPAbandoned
					wantFull.DPEvaluated, wantFull.DPAbandoned = 0, 0
					if fullSt != wantFull {
						t.Fatalf("%s: full-cache stats %+v, want %+v", label, fullSt, wantFull)
					}
				}
			}
			if warmHits == 0 {
				t.Fatalf("shards=%d %s: the warm passes never hit the cache", shards, mode.name)
			}
		}
	}
}

// TestKNNAllocsIndependentOfLeafSize guards the per-query garbage budget
// of the similarity path: the result heap is sized up front and the DP
// arena comes from a pool, so scanning a leaf ten times larger allocates
// as much — to within the arena (a struct and three rows) that the race
// detector's sync.Pool drops at random — and stays under a ceiling a
// little above today's 13 (k-NN) and 22 (exact) allocations per query.
func TestKNNAllocsIndependentOfLeafSize(t *testing.T) {
	ctx := context.Background()
	q := detSequences(1, 91)[0]
	measure := func(n int, exact bool) float64 {
		tr := buildCascadeTree(t, detSequences(n, 90), 1, func(c *Config) {
			c.NumClusters, c.MaxLeafEntries = 1, 2*n
		})
		return testing.AllocsPerRun(100, func() {
			var err error
			if exact {
				_, _, err = tr.KNNExactStatsCtx(ctx, nil, q, 10)
			} else {
				_, _, err = tr.KNNStatsCtx(ctx, nil, q, 10)
			}
			if err != nil {
				t.Fatal(err)
			}
		})
	}
	for _, tc := range []struct {
		exact   bool
		ceiling float64
	}{{false, 20}, {true, 30}} {
		small, large := measure(40, tc.exact), measure(400, tc.exact)
		if math.Abs(small-large) > 4 || large > tc.ceiling {
			t.Errorf("exact=%v: %v allocs/query over a 40-record leaf, %v over a 400-record one (ceiling %v)",
				tc.exact, small, large, tc.ceiling)
		}
	}
}
