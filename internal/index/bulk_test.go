package index

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"strgindex/internal/dist"
)

// insertSorted is the sequential reference for sortedLeaf and mergeLeaf:
// one record placed by binary search, before any existing equal key.
func (c *clusterRecord[P]) insertSorted(rec leafRecord[P]) {
	i := sort.Search(len(c.leaf), func(i int) bool { return c.leaf[i].key >= rec.key })
	c.leaf = append(c.leaf, leafRecord[P]{})
	copy(c.leaf[i+1:], c.leaf[i:])
	c.leaf[i] = rec
}

func bulkSeq(rng *rand.Rand, n int) dist.Sequence {
	s := make(dist.Sequence, n)
	x, y := rng.Float64()*320, rng.Float64()*240
	for i := range s {
		x += rng.NormFloat64() * 6
		y += rng.NormFloat64() * 6
		s[i] = dist.Vec{x, y}
	}
	return s
}

// TestSortedLeafMatchesInsertSorted: the bulk leaf builder must leave
// records in exactly the order sequential insertSorted arrivals produce,
// including the reversed order of equal-key ties.
func TestSortedLeafMatchesInsertSorted(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(40)
		recs := make([]leafRecord[int], n)
		for i := range recs {
			// Coarse keys force plenty of exact ties.
			recs[i] = leafRecord[int]{key: float64(rng.Intn(6)), payload: i}
		}
		var seq clusterRecord[int]
		for _, r := range recs {
			seq.insertSorted(r)
		}
		got := sortedLeaf(append([]leafRecord[int](nil), recs...))
		if !reflect.DeepEqual(got, seq.leaf) {
			t.Fatalf("trial %d: sortedLeaf diverges from sequential insertSorted", trial)
		}
	}
}

// TestMergeLeafMatchesInsertSorted: merging a sorted batch into an
// existing leaf must equal per-record insertSorted calls, newcomers
// placed before existing equal keys.
func TestMergeLeafMatchesInsertSorted(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 200; trial++ {
		var base clusterRecord[int]
		for i := 0; i < rng.Intn(30); i++ {
			base.insertSorted(leafRecord[int]{key: float64(rng.Intn(6)), payload: 1000 + i})
		}
		n := 1 + rng.Intn(20)
		recs := make([]leafRecord[int], n)
		for i := range recs {
			recs[i] = leafRecord[int]{key: float64(rng.Intn(6)), payload: i}
		}
		seq := clusterRecord[int]{leaf: append([]leafRecord[int](nil), base.leaf...)}
		for _, r := range recs {
			seq.insertSorted(r)
		}
		got := mergeLeaf(base.leaf, sortedLeaf(append([]leafRecord[int](nil), recs...)))
		if !reflect.DeepEqual(got, seq.leaf) {
			t.Fatalf("trial %d: mergeLeaf diverges from sequential insertSorted", trial)
		}
	}
}

// TestBulkInsertMatchesPerItem: a batch commit must build the same tree as
// one-item commits while no leaf splits — same leaves, same order, same
// answers. This is the contract that lets million-OG ingest batches skip
// the per-item sorted-insert shifting.
func TestBulkInsertMatchesPerItem(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	cfg := Config{
		NumClusters:    4,
		MaxLeafEntries: 1 << 30, // no splits: both paths route against the same centroids
		Seed:           7,
		Concurrency:    1,
	}
	boot := make([]Item[int], 40)
	for i := range boot {
		boot[i] = Item[int]{Seq: bulkSeq(rng, 10), Payload: i}
	}
	batch := make([]Item[int], 120)
	for i := range batch {
		batch[i] = Item[int]{Seq: bulkSeq(rng, 10), Payload: 1000 + i}
	}

	bulk := New[int](cfg)
	if err := bulk.AddSegment(nil, boot); err != nil {
		t.Fatal(err)
	}
	if err := bulk.AddSegment(nil, batch); err != nil {
		t.Fatal(err)
	}

	one := New[int](cfg)
	if err := one.AddSegment(nil, boot); err != nil {
		t.Fatal(err)
	}
	for _, it := range batch {
		if err := one.AddSegment(nil, []Item[int]{it}); err != nil {
			t.Fatal(err)
		}
	}

	if bulk.Len() != one.Len() {
		t.Fatalf("bulk holds %d records, per-item %d", bulk.Len(), one.Len())
	}
	for ri := range one.roots {
		a, b := bulk.roots[ri], one.roots[ri]
		if len(a.clusters) != len(b.clusters) {
			t.Fatalf("root %d: %d vs %d clusters", ri, len(a.clusters), len(b.clusters))
		}
		for ci := range b.clusters {
			if !reflect.DeepEqual(a.clusters[ci].leaf, b.clusters[ci].leaf) {
				t.Fatalf("root %d cluster %d: leaves differ between bulk and per-item insertion", ri, ci)
			}
		}
	}
	q := bulkSeq(rng, 10)
	if !reflect.DeepEqual(bulk.KNNExact(nil, q, 7), one.KNNExact(nil, q, 7)) {
		t.Error("bulk and per-item trees answer differently")
	}
}
