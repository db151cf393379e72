package index

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"strgindex/internal/dist"
	"strgindex/internal/graph"
)

// shardBG builds backgrounds that are mutually dissimilar (different node
// counts and sizes), so each creates its own root.
func shardBG(i int) *graph.Graph {
	g := graph.New()
	for n := 0; n <= i; n++ {
		g.MustAddNode(graph.Node{ID: graph.NodeID(n), Attr: graph.NodeAttr{
			Size: float64(int(1000) << (3 * i)), Color: graph.Color{R: 0.1 + 0.2*float64(i), G: 0.1 + 0.2*float64(i), B: 0.1 + 0.2*float64(i)},
		}})
	}
	return g
}

type shardSeg struct {
	bg    int
	items []Item[int]
}

// shardScript produces a deterministic multi-background ingest: one
// bootstrap segment per stream (EM path), then interleaved incremental
// segments (centroid routing + split path). Streams are offset in space so
// their contents differ.
func shardScript(seed int64) ([]*graph.Graph, []shardSeg) {
	bgs := []*graph.Graph{nil, shardBG(1), shardBG(2)}
	rng := rand.New(rand.NewSource(seed))
	payload := 0
	mk := func(n int, base float64) []Item[int] {
		items := make([]Item[int], n)
		for i := range items {
			l := 4 + rng.Intn(6)
			s := make(dist.Sequence, l)
			off := base + 200*float64(i%2)
			for j := range s {
				s[j] = dist.Vec{off + rng.Float64()*100, off + rng.Float64()*100}
			}
			items[i] = Item[int]{Seq: s, Payload: payload}
			payload++
		}
		return items
	}
	var segs []shardSeg
	for b := range bgs {
		segs = append(segs, shardSeg{b, mk(24, 400*float64(b))})
	}
	for round := 0; round < 6; round++ {
		for b := range bgs {
			segs = append(segs, shardSeg{b, mk(3+rng.Intn(4), 400*float64(b))})
		}
	}
	return bgs, segs
}

func sameItems(t *testing.T, label string, got, want []Item[int]) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d items, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i].Payload != want[i].Payload {
			t.Fatalf("%s: item %d payload %d, want %d (layout diverged)",
				label, i, got[i].Payload, want[i].Payload)
		}
	}
}

// TestShardedByteIdentityMatrix is the acceptance matrix: shard counts
// {1,2,4} × worker counts {1,2} × cascade on/off all produce trees whose
// merged iteration order, structure and every search result — the
// default single-leaf k-NN of Algorithm 3 included — are byte-identical
// to the plain single-tree build of the same segment sequence, and the
// plain trees are identical across worker counts and cascade settings. The workload
// starts each root as one cluster and crosses the occupancy bound many
// times, in the seeding commit and in later ones. Two more copies must
// agree as well: one saved half-way, restored and fed the rest, and one
// that replays the commits through Route + AddRouted, as log replay does.
func TestShardedByteIdentityMatrix(t *testing.T) {
	bgs, segs := shardScript(31)
	queries := detSequences(4, 99)
	var canon *Tree[int] // workers=1 with the cascade: every other plain tree must equal it
	for _, workers := range []int{1, 2} {
		for _, noCascade := range []bool{false, true} {
			cfg := Config{Seed: 11, MaxLeafEntries: 8, Concurrency: workers, DisableCascade: noCascade}
			ref := New[int](cfg)
			seeded := 0
			for i, sg := range segs {
				if err := ref.AddSegment(bgs[sg.bg], sg.items); err != nil {
					t.Fatal(err)
				}
				if i == len(bgs)-1 {
					seeded = ref.NumClusters()
				}
			}
			if err := ref.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			if canon == nil {
				canon = ref
			}
			refLabel := labelf("plain tree workers=%d cascade=%v", workers, !noCascade)
			sameItems(t, refLabel, ref.Items(), canon.Items())
			for qi, q := range queries {
				sameResults(t, labelf("%s q=%d KNN", refLabel, qi), ref.KNN(bgs[qi%len(bgs)], q, 5), canon.KNN(bgs[qi%len(bgs)], q, 5))
			}
			if seeded < 3*len(bgs) || ref.NumClusters() < seeded+len(bgs) {
				t.Fatalf("workload split too little: %d clusters after seeding, %d at the end", seeded, ref.NumClusters())
			}
			for _, r := range ref.roots {
				for _, cl := range r.clusters {
					if len(cl.leaf) > cfg.MaxLeafEntries {
						t.Fatalf("leaf of %d records over the bound %d", len(cl.leaf), cfg.MaxLeafEntries)
					}
				}
			}
			for _, nsh := range []int{1, 2, 4} {
				label := labelf("workers=%d cascade=%v shards=%d", workers, !noCascade, nsh)
				scfg := cfg
				scfg.Shards = nsh
				s := NewSharded[int](scfg)
				replayed := NewSharded[int](scfg)
				var restored *Sharded[int]
				for i, sg := range segs {
					if err := s.AddSegment(bgs[sg.bg], sg.items); err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					if err := replayed.AddRouted(replayed.Route(bgs[sg.bg]), sg.items); err != nil {
						t.Fatalf("%s replayed: %v", label, err)
					}
					if restored != nil {
						if err := restored.AddSegment(bgs[sg.bg], sg.items); err != nil {
							t.Fatalf("%s restored: %v", label, err)
						}
					} else if i == len(segs)/2 {
						var err error
						if restored, err = NewShardedFromSnapshot(s.Snapshot(), scfg); err != nil {
							t.Fatalf("%s: restore: %v", label, err)
						}
					}
				}
				if err := s.View().CheckInvariants(); err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if s.Len() != ref.Len() || s.NumRoots() != len(ref.roots) || s.NumClusters() != ref.NumClusters() {
					t.Fatalf("%s: shape (%d,%d,%d), want (%d,%d,%d)", label,
						s.Len(), s.NumRoots(), s.NumClusters(),
						ref.Len(), len(ref.roots), ref.NumClusters())
				}
				if s.MemoryBytes() != ref.MemoryBytes() {
					t.Fatalf("%s: MemoryBytes %d, want %d", label, s.MemoryBytes(), ref.MemoryBytes())
				}
				sameItems(t, label, s.View().Items(), ref.Items())
				sameItems(t, label+" replayed", replayed.View().Items(), ref.Items())
				sameItems(t, label+" restored", restored.View().Items(), ref.Items())
				// Every committed write published exactly one snapshot.
				var vsum uint64
				for _, v := range s.Versions() {
					vsum += v
				}
				if vsum != uint64(len(segs)) {
					t.Fatalf("%s: version sum %d, want %d", label, vsum, len(segs))
				}
				for b, bg := range bgs {
					for qi, q := range queries {
						sq := q.Clone()
						for _, v := range sq {
							v[0] += 400 * float64(b)
							v[1] += 400 * float64(b)
						}
						ql := labelf("%s bg=%d q=%d", label, b, qi)
						want := ref.KNN(bg, sq, 5)
						sameResults(t, ql+" KNN", s.View().KNN(bg, sq, 5), want)
						sameResults(t, ql+" KNN replayed", replayed.View().KNN(bg, sq, 5), want)
						sameResults(t, ql+" KNN restored", restored.View().KNN(bg, sq, 5), want)
						sameResults(t, ql+" KNNExact", s.View().KNNExact(bg, sq, 9), ref.KNNExact(bg, sq, 9))
						sameResults(t, ql+" Range", s.View().Range(bg, sq, 150), ref.Range(bg, sq, 150))
					}
				}
				// Search accounting is identical too: same records visited,
				// same cascade dispositions.
				gotRes, gotSt, err1 := s.KNNExactStatsCtx(t.Context(), bgs[1], queries[0], 7)
				wantRes, wantSt, err2 := ref.KNNExactStatsCtx(t.Context(), bgs[1], queries[0], 7)
				if err1 != nil || err2 != nil {
					t.Fatalf("%s: stats errs %v %v", label, err1, err2)
				}
				sameResults(t, label+" stats results", gotRes, wantRes)
				if gotSt != wantSt {
					t.Fatalf("%s: stats %+v, want %+v", label, gotSt, wantSt)
				}
			}
		}
	}
}

// TestShardedQueriesServeDuringIngest proves readers never wait on
// writers: with an ingest goroutine parked mid-commit (its cluster
// distance blocked on a channel), exact k-NN and range queries still
// complete against the previous snapshot.
func TestShardedQueriesServeDuringIngest(t *testing.T) {
	var armed atomic.Bool
	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	cd := func(a, b dist.Sequence) float64 {
		if armed.Load() {
			once.Do(func() { close(entered) })
			<-release
		}
		return dist.EGED(a, b)
	}
	s := NewSharded[int](Config{Seed: 5, NumClusters: 2, Shards: 2, ClusterDistance: cd})
	seqs := detSequences(40, 7)
	items := make([]Item[int], len(seqs))
	for i, sq := range seqs {
		items[i] = Item[int]{Seq: sq, Payload: i}
	}
	if err := s.AddSegment(nil, items); err != nil {
		t.Fatal(err)
	}
	lenBefore := s.Len()

	armed.Store(true)
	more := detSequences(5, 8)
	errCh := make(chan error, 1)
	go func() {
		extra := make([]Item[int], len(more))
		for i, sq := range more {
			extra[i] = Item[int]{Seq: sq, Payload: 1000 + i}
		}
		errCh <- s.AddSegment(nil, extra)
	}()
	<-entered // the writer is now parked inside its commit

	q := detSequences(1, 9)[0]
	type ans struct {
		knn []Result[int]
		rng []Result[int]
	}
	done := make(chan ans, 1)
	go func() {
		done <- ans{knn: s.View().KNNExact(nil, q, 5), rng: s.View().Range(nil, q, 200)}
	}()
	select {
	case a := <-done:
		if len(a.knn) != 5 {
			t.Fatalf("KNNExact returned %d results during ingest", len(a.knn))
		}
		for _, r := range a.knn {
			if r.Payload >= 1000 {
				t.Fatalf("query observed uncommitted payload %d", r.Payload)
			}
		}
		if s.Len() != lenBefore {
			t.Fatalf("Len %d changed before commit (want %d)", s.Len(), lenBefore)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("query blocked behind an in-flight ingest — snapshot reads are not lock-free")
	}
	armed.Store(false)
	close(release)
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
	if s.Len() != lenBefore+len(more) {
		t.Fatalf("Len after commit = %d, want %d", s.Len(), lenBefore+len(more))
	}
	if err := s.View().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestShardedSnapshotRoundtrip serializes a 3-shard index and restores it
// at shard counts 1, 2 and 5 and as a plain tree: every restore yields the
// same logical database (items in order, identical answers).
func TestShardedSnapshotRoundtrip(t *testing.T) {
	bgs, segs := shardScript(83)
	cfg := Config{Seed: 11, NumClusters: 2, MaxLeafEntries: 8, Shards: 3}
	s := NewSharded[int](cfg)
	for _, sg := range segs {
		if err := s.AddSegment(bgs[sg.bg], sg.items); err != nil {
			t.Fatal(err)
		}
	}
	snap := s.Snapshot()
	wantItems := s.View().Items()
	q := detSequences(2, 13)
	for _, nsh := range []int{1, 2, 5} {
		rcfg := cfg
		rcfg.Shards = nsh
		r, err := NewShardedFromSnapshot[int](snap, rcfg)
		if err != nil {
			t.Fatalf("shards=%d: %v", nsh, err)
		}
		sameItems(t, labelf("restore shards=%d", nsh), r.View().Items(), wantItems)
		for qi, query := range q {
			sameResults(t, labelf("restore shards=%d q=%d", nsh, qi),
				r.View().KNNExact(nil, query, 6), s.View().KNNExact(nil, query, 6))
			sameResults(t, labelf("restore shards=%d q=%d range", nsh, qi),
				r.View().Range(nil, query, 180), s.View().Range(nil, query, 180))
		}
	}
}

// TestRouteShardAgreement checks the pure pre-commit route matches where
// AddSegment actually homes each root — for new backgrounds and repeats.
func TestRouteShardAgreement(t *testing.T) {
	s := NewSharded[int](Config{Seed: 1, NumClusters: 2, Shards: 4})
	for i, bg := range []*graph.Graph{nil, shardBG(1), shardBG(2), shardBG(3)} {
		want := s.Route(bg).Shard
		seqs := detSequences(6, int64(100+i))
		items := make([]Item[int], len(seqs))
		for j, sq := range seqs {
			items[j] = Item[int]{Seq: sq, Payload: i*100 + j}
		}
		if err := s.AddSegment(bg, items); err != nil {
			t.Fatal(err)
		}
		dir := *s.dir.Load()
		e := dir[len(dir)-1]
		if e.shard != want {
			t.Fatalf("bg %d: Route said shard %d, root homed on %d", i, want, e.shard)
		}
		if got := s.Route(bg).Shard; got != e.shard {
			t.Fatalf("bg %d: repeat Route = shard %d, want %d", i, got, e.shard)
		}
	}
	if s.NumRoots() != 4 {
		t.Fatalf("NumRoots = %d, want 4 (backgrounds unexpectedly matched)", s.NumRoots())
	}
}

// TestShardedEmptySegment matches the plain tree: a background-only
// segment creates a routable root without indexing anything.
func TestShardedEmptySegment(t *testing.T) {
	s := NewSharded[int](Config{Seed: 1, Shards: 2})
	bg := shardBG(1)
	if err := s.AddSegment(bg, nil); err != nil {
		t.Fatal(err)
	}
	if s.NumRoots() != 1 || s.Len() != 0 {
		t.Fatalf("after empty segment: roots=%d len=%d, want 1, 0", s.NumRoots(), s.Len())
	}
	seqs := detSequences(3, 2)
	items := []Item[int]{{Seq: seqs[0], Payload: 0}, {Seq: seqs[1], Payload: 1}, {Seq: seqs[2], Payload: 2}}
	if err := s.AddSegment(shardBG(1), items); err != nil {
		t.Fatal(err)
	}
	if s.NumRoots() != 1 {
		t.Fatalf("similar background created a second root (roots=%d)", s.NumRoots())
	}
	if s.Len() != 3 {
		t.Fatalf("Len = %d, want 3", s.Len())
	}
}
