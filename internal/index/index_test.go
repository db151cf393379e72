package index

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"strgindex/internal/dist"
	"strgindex/internal/graph"
)

// trajectory builds a 2-D line trajectory from (x0,y0) to (x1,y1) with n
// samples.
func trajectory(x0, y0, x1, y1 float64, n int) dist.Sequence {
	s := make(dist.Sequence, n)
	for i := 0; i < n; i++ {
		t := float64(i) / float64(n-1)
		s[i] = dist.Vec{x0 + (x1-x0)*t, y0 + (y1-y0)*t}
	}
	return s
}

// patternItems generates items around p distinct trajectory patterns.
func patternItems(perPattern int, noise float64, seed int64) ([]Item[int], []int) {
	rng := rand.New(rand.NewSource(seed))
	protos := []dist.Sequence{
		trajectory(0, 50, 300, 50, 10),   // east
		trajectory(300, 150, 0, 150, 10), // west
		trajectory(150, 0, 150, 200, 10), // south
	}
	var items []Item[int]
	var labels []int
	id := 0
	for p, proto := range protos {
		for i := 0; i < perPattern; i++ {
			seq := proto.Clone()
			for _, v := range seq {
				v[0] += rng.NormFloat64() * noise
				v[1] += rng.NormFloat64() * noise
			}
			items = append(items, Item[int]{Seq: seq, Payload: id})
			labels = append(labels, p)
			id++
		}
	}
	return items, labels
}

func bgGraph(shade float64) *graph.Graph {
	g := graph.New()
	for i := 0; i < 4; i++ {
		g.MustAddNode(graph.Node{ID: graph.NodeID(i), Attr: graph.NodeAttr{
			Size: 1000, Color: graph.Color{R: shade + float64(i)*0.1, G: shade + float64(i)*0.1, B: shade + float64(i)*0.1},
		}})
	}
	_ = g.AddEdge(0, 1, graph.SpatialAttr{Dist: 50})
	_ = g.AddEdge(1, 2, graph.SpatialAttr{Dist: 50})
	_ = g.AddEdge(2, 3, graph.SpatialAttr{Dist: 50})
	return g
}

// TestAddSegmentAndLen: a root starts as one cluster, and a first batch
// larger than the occupancy bound is split until every leaf fits.
func TestAddSegmentAndLen(t *testing.T) {
	items, _ := patternItems(10, 3, 1)
	for _, tc := range []struct{ bound, minClusters int }{{0, 1}, {8, 4}} {
		tr := New[int](Config{Seed: 1, MaxLeafEntries: tc.bound})
		if err := tr.AddSegment(nil, items); err != nil {
			t.Fatal(err)
		}
		if tr.Len() != 30 {
			t.Errorf("bound %d: Len = %d, want 30", tc.bound, tr.Len())
		}
		if len(tr.roots) != 1 {
			t.Errorf("bound %d: NumRoots = %d, want 1", tc.bound, len(tr.roots))
		}
		if tc.bound == 0 && tr.NumClusters() != 1 {
			t.Errorf("default bound: NumClusters = %d, want 1 (30 items fit one leaf)", tr.NumClusters())
		}
		if tr.NumClusters() < tc.minClusters {
			t.Errorf("bound %d: NumClusters = %d, want >= %d", tc.bound, tr.NumClusters(), tc.minClusters)
		}
		for _, cl := range tr.roots[0].clusters {
			if tc.bound > 0 && len(cl.leaf) > tc.bound {
				t.Errorf("bound %d: leaf of %d records", tc.bound, len(cl.leaf))
			}
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestKNNFindsPatternNeighbors(t *testing.T) {
	tr := New[int](Config{Seed: 1})
	items, labels := patternItems(15, 3, 2)
	if err := tr.AddSegment(nil, items); err != nil {
		t.Fatal(err)
	}
	// Query with a fresh east trajectory: neighbors should be east items.
	q := trajectory(0, 50, 300, 50, 10)
	got := tr.KNN(nil, q, 5)
	if len(got) != 5 {
		t.Fatalf("KNN returned %d, want 5", len(got))
	}
	for _, r := range got {
		if labels[r.Payload] != 0 {
			t.Errorf("neighbor payload %d has label %d, want 0 (east)", r.Payload, labels[r.Payload])
		}
	}
	for i := 1; i < len(got); i++ {
		if got[i].Distance < got[i-1].Distance {
			t.Error("KNN results not sorted")
		}
	}
}

func TestKNNExactMatchesBruteForce(t *testing.T) {
	tr := New[int](Config{Seed: 3})
	items, _ := patternItems(20, 8, 3)
	if err := tr.AddSegment(nil, items); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 10; trial++ {
		q := trajectory(rng.Float64()*300, rng.Float64()*200, rng.Float64()*300, rng.Float64()*200, 8+rng.Intn(4))
		k := 1 + rng.Intn(8)
		got := tr.KNNExact(nil, q, k)
		// Brute force.
		type pair struct {
			d float64
			p int
		}
		ref := make([]pair, len(items))
		for i, it := range items {
			ref[i] = pair{dist.EGEDMZero(q, it.Seq), it.Payload}
		}
		sort.Slice(ref, func(i, j int) bool { return ref[i].d < ref[j].d })
		if len(got) != k {
			t.Fatalf("KNNExact returned %d, want %d", len(got), k)
		}
		for i := 0; i < k; i++ {
			if math.Abs(got[i].Distance-ref[i].d) > 1e-9 {
				t.Fatalf("trial %d: result %d distance %v, want %v", trial, i, got[i].Distance, ref[i].d)
			}
		}
	}
}

func TestApproximateKNNSubsetOfExact(t *testing.T) {
	tr := New[int](Config{Seed: 5})
	items, _ := patternItems(20, 5, 6)
	if err := tr.AddSegment(nil, items); err != nil {
		t.Fatal(err)
	}
	q := trajectory(10, 55, 290, 45, 10)
	approx := tr.KNN(nil, q, 5)
	exact := tr.KNNExact(nil, q, 5)
	if len(approx) == 0 || len(exact) != 5 {
		t.Fatalf("approx %d, exact %d results", len(approx), len(exact))
	}
	// Approximate distances can only be >= the exact ones rank-by-rank.
	for i := range approx {
		if i < len(exact) && approx[i].Distance < exact[i].Distance-1e-9 {
			t.Errorf("approximate rank %d distance %v beats exact %v", i, approx[i].Distance, exact[i].Distance)
		}
	}
}

func TestRangeSearch(t *testing.T) {
	tr := New[int](Config{Seed: 7})
	items, _ := patternItems(15, 3, 8)
	if err := tr.AddSegment(nil, items); err != nil {
		t.Fatal(err)
	}
	q := items[0].Seq
	radius := 100.0
	got := tr.Range(nil, q, radius)
	// Brute-force reference.
	want := map[int]float64{}
	for _, it := range items {
		if d := dist.EGEDMZero(q, it.Seq); d <= radius {
			want[it.Payload] = d
		}
	}
	if len(got) != len(want) {
		t.Fatalf("Range returned %d, want %d", len(got), len(want))
	}
	for _, r := range got {
		if wd, ok := want[r.Payload]; !ok || math.Abs(wd-r.Distance) > 1e-9 {
			t.Errorf("payload %d distance %v, want %v (present %v)", r.Payload, r.Distance, wd, ok)
		}
	}
}

func TestBackgroundRouting(t *testing.T) {
	tr := New[int](Config{Seed: 9, NumClusters: 2})
	bgA := bgGraph(0.2)
	bgB := graph.New() // wildly different background: single huge node
	bgB.MustAddNode(graph.Node{ID: 0, Attr: graph.NodeAttr{Size: 99999, Color: graph.Color{R: 0.9, G: 0.9, B: 0.9}}})

	itemsA, _ := patternItems(8, 2, 10)
	itemsB := []Item[int]{
		{Seq: trajectory(0, 0, 10, 10, 6), Payload: 1000},
		{Seq: trajectory(0, 0, 12, 9, 6), Payload: 1001},
		{Seq: trajectory(5, 0, 0, 12, 6), Payload: 1002},
	}
	if err := tr.AddSegment(bgA, itemsA); err != nil {
		t.Fatal(err)
	}
	if err := tr.AddSegment(bgB, itemsB); err != nil {
		t.Fatal(err)
	}
	if len(tr.roots) != 2 {
		t.Fatalf("NumRoots = %d, want 2", len(tr.roots))
	}
	// A segment with a background similar to bgA must not create a third root.
	if err := tr.AddSegment(bgGraph(0.2), itemsA[:2]); err != nil {
		t.Fatal(err)
	}
	if len(tr.roots) != 2 {
		t.Errorf("NumRoots after similar background = %d, want 2", len(tr.roots))
	}
	// Querying with bgB must find bgB's items.
	got := tr.KNN(bgB, trajectory(0, 0, 11, 10, 6), 2)
	if len(got) != 2 {
		t.Fatalf("KNN returned %d", len(got))
	}
	for _, r := range got {
		if r.Payload < 1000 {
			t.Errorf("background routing leaked payload %d from the other stream", r.Payload)
		}
	}
}

// TestLeafSplit: two tight, well-separated groups forced into one cluster
// overflow its bound across several commits. Every commit must leave all
// leaves within the bound, and the K = 2 fits must never mix the groups.
func TestLeafSplit(t *testing.T) {
	tr := New[int](Config{Seed: 11, NumClusters: 1, MaxLeafEntries: 10})
	group := func(i int) Item[int] {
		if i%2 == 0 {
			return Item[int]{Seq: trajectory(0, float64(i), 100, float64(i), 6), Payload: i}
		}
		return Item[int]{Seq: trajectory(0, 500+float64(i), 100, 500+float64(i), 6), Payload: 100 + i}
	}
	var items []Item[int]
	for i := 0; i < 48; i++ {
		items = append(items, group(i))
	}
	for lo := 0; lo < len(items); lo += 12 {
		if err := tr.AddSegment(nil, items[lo:lo+12]); err != nil {
			t.Fatal(err)
		}
		for _, cl := range tr.roots[0].clusters {
			if len(cl.leaf) > 10 {
				t.Fatalf("after %d items: leaf of %d records over the bound", lo+12, len(cl.leaf))
			}
			for _, rec := range cl.leaf[1:] {
				if (rec.payload < 100) != (cl.leaf[0].payload < 100) {
					t.Fatalf("after %d items: a leaf mixes the two groups", lo+12)
				}
			}
		}
	}
	if tr.NumClusters() < 5 {
		t.Errorf("NumClusters = %d, want >= 5 for 48 records at 10 per leaf", tr.NumClusters())
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 48 {
		t.Errorf("Len = %d, want 48", tr.Len())
	}
}

// TestLeafSplitIdenticalMembers: a leaf of identical sequences gives the
// K = 2 fit nothing to separate (one component stays empty), so splits
// fall back to halving the key-sorted leaf; the commit must still end
// with every leaf within the bound.
func TestLeafSplitIdenticalMembers(t *testing.T) {
	tr := New[int](Config{Seed: 3, MaxLeafEntries: 4})
	items := make([]Item[int], 19)
	for i := range items {
		items[i] = Item[int]{Seq: trajectory(0, 10, 100, 10, 6), Payload: i}
	}
	if err := tr.AddSegment(nil, items); err != nil {
		t.Fatal(err)
	}
	for _, cl := range tr.roots[0].clusters {
		if len(cl.leaf) > 4 || len(cl.leaf) == 0 {
			t.Fatalf("leaf of %d records, want 1..4", len(cl.leaf))
		}
	}
	if tr.Len() != 19 || tr.NumClusters() < 5 {
		t.Fatalf("Len %d, %d clusters; want 19 records in at least 5 leaves", tr.Len(), tr.NumClusters())
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestInsertIncremental(t *testing.T) {
	tr := New[int](Config{Seed: 13, NumClusters: 2})
	items, _ := patternItems(5, 2, 14)
	if err := tr.AddSegment(nil, items); err != nil {
		t.Fatal(err)
	}
	before := tr.Len()
	if err := tr.AddSegment(nil, []Item[int]{{Seq: trajectory(0, 52, 300, 48, 10), Payload: 999}}); err != nil {
		t.Fatal(err)
	}
	if tr.Len() != before+1 {
		t.Errorf("Len = %d, want %d", tr.Len(), before+1)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	got := tr.KNN(nil, trajectory(0, 52, 300, 48, 10), 1)
	if len(got) != 1 || got[0].Payload != 999 {
		t.Errorf("KNN after insert = %+v, want payload 999", got)
	}
}

func TestEmptyTreeQueries(t *testing.T) {
	tr := New[int](Config{})
	if got := tr.KNN(nil, trajectory(0, 0, 1, 1, 4), 3); got != nil {
		t.Errorf("KNN on empty tree = %v", got)
	}
	if got := tr.KNNExact(nil, trajectory(0, 0, 1, 1, 4), 3); got != nil {
		t.Errorf("KNNExact on empty tree = %v", got)
	}
	if got := tr.Range(nil, trajectory(0, 0, 1, 1, 4), 10); len(got) != 0 {
		t.Errorf("Range on empty tree = %v", got)
	}
	if got := tr.KNN(nil, trajectory(0, 0, 1, 1, 4), 0); got != nil {
		t.Errorf("KNN with k=0 = %v", got)
	}
}

func TestAddEmptySegment(t *testing.T) {
	tr := New[int](Config{})
	if err := tr.AddSegment(nil, nil); err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 0 {
		t.Errorf("Len = %d, want 0", tr.Len())
	}
	// Root record exists but has no clusters; inserting later must error
	// only if clustering is impossible — a single item should bootstrap.
	if err := tr.AddSegment(nil, []Item[int]{{Seq: trajectory(0, 0, 5, 5, 4), Payload: 1}}); err != nil {
		t.Fatalf("bootstrap insert: %v", err)
	}
	if tr.Len() != 1 {
		t.Errorf("Len = %d, want 1", tr.Len())
	}
}

func TestMemoryBytesEquation10(t *testing.T) {
	tr := New[int](Config{Seed: 15, NumClusters: 3})
	items, _ := patternItems(10, 2, 16)
	bg := bgGraph(0.3)
	if err := tr.AddSegment(bg, items); err != nil {
		t.Fatal(err)
	}
	got := tr.MemoryBytes()
	if got <= 0 {
		t.Fatal("MemoryBytes <= 0")
	}
	// Equation 10 lower bound: the member sequences alone.
	var memberBytes int
	for _, it := range items {
		memberBytes += len(it.Seq) * 2 * 8
	}
	if got < memberBytes {
		t.Errorf("MemoryBytes %d below member payload %d", got, memberBytes)
	}
	// The background is counted once, not per frame.
	if got > memberBytes+bg.MemoryBytes()+tr.NumClusters()*10*2*8+tr.Len()*16+4096 {
		t.Errorf("MemoryBytes %d unexpectedly large", got)
	}
}

func TestCountedMetricObservesSavings(t *testing.T) {
	// The key-pruned leaf search must evaluate fewer distances than a
	// linear scan of the whole database.
	var c dist.Counter
	tr := New[int](Config{Seed: 17, Metric: dist.Counted(dist.EGEDMZero, &c)})
	items, _ := patternItems(30, 3, 18)
	if err := tr.AddSegment(nil, items); err != nil {
		t.Fatal(err)
	}
	c.Reset()
	q := trajectory(5, 48, 295, 52, 10)
	tr.KNN(nil, q, 5)
	if c.Count() >= int64(len(items)) {
		t.Errorf("KNN evaluated %d distances, want < %d (linear scan)", c.Count(), len(items))
	}
}
