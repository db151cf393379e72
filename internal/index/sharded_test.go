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

// TestShardedByteIdentityMatrix is the acceptance matrix: worker counts
// {1,2} × cascade on/off all produce served indexes whose iteration order,
// structure and every search result — the default single-leaf k-NN of
// Algorithm 3 included — are byte-identical to the plain single-tree build
// of the same segment sequence, and the plain trees are identical across
// worker counts and cascade settings. The workload starts each root as one
// cluster and crosses the occupancy bound many times, in the seeding commit
// and in later ones. One more copy must agree as well: one saved half-way,
// restored and fed the rest.
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
			label := labelf("workers=%d cascade=%v", workers, !noCascade)
			s := NewSharded[int](cfg)
			var restored *Sharded[int]
			for i, sg := range segs {
				if err := s.AddSegment(bgs[sg.bg], sg.items); err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if restored != nil {
					if err := restored.AddSegment(bgs[sg.bg], sg.items); err != nil {
						t.Fatalf("%s restored: %v", label, err)
					}
				} else if i == len(segs)/2 {
					var err error
					if restored, err = NewShardedFromSnapshot(s.Snapshot(), cfg); err != nil {
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
			sameItems(t, label+" restored", restored.View().Items(), ref.Items())
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

// TestShardedViewIsCommitPrefix takes views during a commit storm over
// three distinct backgrounds and checks each one holds exactly the first
// m commits for some m: payloads are numbered in commit order, so a
// prefix holds the payloads {0..Len-1}, Len is one of the per-commit
// running totals, and the root count is that prefix's.
func TestShardedViewIsCommitPrefix(t *testing.T) {
	bgs := []*graph.Graph{nil, shardBG(1), shardBG(2)}
	const commits = 48
	seqs := detSequences(commits*3, 21)
	type commit struct {
		bg    *graph.Graph
		items []Item[int]
	}
	script := make([]commit, commits)
	// rootsAt maps each prefix's OG count to its root count.
	rootsAt := map[int]int{0: 0}
	total, payload := 0, 0
	for c := range script {
		script[c].bg = bgs[c%len(bgs)]
		for j := 0; j < 1+c%3; j++ {
			script[c].items = append(script[c].items, Item[int]{Seq: seqs[payload], Payload: payload})
			payload++
		}
		total += len(script[c].items)
		rootsAt[total] = min(c+1, len(bgs))
	}

	s := NewSharded[int](Config{Seed: 3, MaxLeafEntries: 8})
	var done atomic.Bool
	var views atomic.Int64
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !done.Load() {
				v := s.View()
				views.Add(1)
				n := v.Len()
				roots, ok := rootsAt[n]
				if !ok {
					t.Errorf("view holds %d OGs, which no commit prefix does", n)
					return
				}
				if len(v.roots) != roots {
					t.Errorf("view of %d OGs has %d roots, the prefix %d", n, len(v.roots), roots)
					return
				}
				items := v.Items()
				if len(items) != n {
					t.Errorf("view reports %d OGs and holds %d", n, len(items))
					return
				}
				seen := make([]bool, n)
				for _, it := range items {
					if it.Payload < 0 || it.Payload >= n || seen[it.Payload] {
						t.Errorf("view of %d OGs holds payload %d: not a commit prefix", n, it.Payload)
						return
					}
					seen[it.Payload] = true
				}
			}
		}()
	}
	for _, c := range script {
		if err := s.AddSegment(c.bg, c.items); err != nil {
			t.Error(err)
			break
		}
	}
	done.Store(true)
	wg.Wait()
	if s.Len() != total || s.NumRoots() != len(bgs) {
		t.Fatalf("final index holds %d OGs under %d roots, want %d under %d", s.Len(), s.NumRoots(), total, len(bgs))
	}
	if views.Load() == 0 {
		t.Fatal("no view was taken during the storm")
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
	s := NewSharded[int](Config{Seed: 5, NumClusters: 2, ClusterDistance: cd})
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

// TestShardedSnapshotRoundtrip serializes an index and restores it:
// the restore yields the same logical database (items in order,
// identical answers).
func TestShardedSnapshotRoundtrip(t *testing.T) {
	bgs, segs := shardScript(83)
	cfg := Config{Seed: 11, NumClusters: 2, MaxLeafEntries: 8}
	s := NewSharded[int](cfg)
	for _, sg := range segs {
		if err := s.AddSegment(bgs[sg.bg], sg.items); err != nil {
			t.Fatal(err)
		}
	}
	r, err := NewShardedFromSnapshot[int](s.Snapshot(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	sameItems(t, "restore", r.View().Items(), s.View().Items())
	for qi, query := range detSequences(2, 13) {
		sameResults(t, labelf("restore q=%d", qi),
			r.View().KNNExact(nil, query, 6), s.View().KNNExact(nil, query, 6))
		sameResults(t, labelf("restore q=%d range", qi),
			r.View().Range(nil, query, 180), s.View().Range(nil, query, 180))
	}
}

// TestShardedEmptySegment matches the plain tree: a background-only
// segment creates a routable root without indexing anything.
func TestShardedEmptySegment(t *testing.T) {
	s := NewSharded[int](Config{Seed: 1})
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
