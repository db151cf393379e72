package index

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"strgindex/internal/dist"
)

// randomItems builds a random variable-length 2-D item set.
func randomItems(rng *rand.Rand, n int) []Item[int] {
	items := make([]Item[int], n)
	for i := range items {
		m := 2 + rng.Intn(6)
		s := make(dist.Sequence, m)
		for j := range s {
			s[j] = dist.Vec{rng.Float64() * 300, rng.Float64() * 200}
		}
		items[i] = Item[int]{Seq: s, Payload: i}
	}
	return items
}

// TestKNNExactMatchesBruteForceProperty: for any data, cluster count and
// query, the exact search equals brute force under the key metric.
func TestKNNExactMatchesBruteForceProperty(t *testing.T) {
	f := func(seed int64, kSel, clSel uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 30 + rng.Intn(90)
		items := randomItems(rng, n)
		tr := New[int](Config{
			Seed:        seed,
			NumClusters: 1 + int(clSel%7),
			EMMaxIter:   8,
		})
		if err := tr.AddSegment(nil, items); err != nil {
			return false
		}
		q := dist.Sequence{{rng.Float64() * 300, rng.Float64() * 200}}
		k := 1 + int(kSel%9)
		got := tr.KNNExact(nil, q, k)
		ref := make([]float64, n)
		for i, it := range items {
			ref[i] = dist.EGEDMZero(q, it.Seq)
		}
		sort.Float64s(ref)
		if len(got) != k {
			return false
		}
		for i := 0; i < k; i++ {
			if math.Abs(got[i].Distance-ref[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestRangeMatchesBruteForceProperty: range search is exact for any radius.
func TestRangeMatchesBruteForceProperty(t *testing.T) {
	f := func(seed int64, radSel uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 30 + rng.Intn(60)
		items := randomItems(rng, n)
		tr := New[int](Config{Seed: seed, NumClusters: 4, EMMaxIter: 8})
		if err := tr.AddSegment(nil, items); err != nil {
			return false
		}
		q := items[rng.Intn(n)].Seq
		radius := float64(radSel) * 10
		got := tr.Range(nil, q, radius)
		want := map[int]bool{}
		for _, it := range items {
			if dist.EGEDMZero(q, it.Seq) <= radius {
				want[it.Payload] = true
			}
		}
		if len(got) != len(want) {
			return false
		}
		for _, r := range got {
			if !want[r.Payload] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestInvariantsAfterChurnProperty: leaf key order and key correctness
// survive arbitrary insert sequences and splits.
func TestInvariantsAfterChurnProperty(t *testing.T) {
	f := func(seed int64, leafSel uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := New[int](Config{
			Seed:           seed,
			NumClusters:    3,
			EMMaxIter:      6,
			MaxLeafEntries: 8 + int(leafSel%16),
		})
		if err := tr.AddSegment(nil, randomItems(rng, 20)); err != nil {
			return false
		}
		for i := 0; i < 60; i++ {
			m := 2 + rng.Intn(5)
			s := make(dist.Sequence, m)
			for j := range s {
				s[j] = dist.Vec{rng.Float64() * 300, rng.Float64() * 200}
			}
			if err := tr.AddSegment(nil, []Item[int]{{Seq: s, Payload: 1000 + i}}); err != nil {
				return false
			}
		}
		return tr.CheckInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

// TestSnapshotRoundTripProperty: snapshot/restore preserves every record
// for arbitrary trees.
func TestSnapshotRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := New[int](Config{Seed: seed, NumClusters: 4, EMMaxIter: 6})
		if err := tr.AddSegment(nil, randomItems(rng, 25+rng.Intn(40))); err != nil {
			return false
		}
		sh, err := NewShardedFromSnapshot(tr.Snapshot(), Config{Seed: seed, NumClusters: 4})
		if err != nil {
			return false
		}
		restored := sh.View()
		if restored.Len() != tr.Len() || restored.NumClusters() != tr.NumClusters() {
			return false
		}
		a, b := tr.Items(), restored.Items()
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i].Payload != b[i].Payload {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}
