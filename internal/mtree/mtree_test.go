package mtree

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"strgindex/internal/dist"
)

// point1 wraps a scalar into a 1-sample sequence: the metric space then
// behaves like plain R^1, which makes expected results easy to state.
func point1(v float64) dist.Sequence { return dist.Sequence{dist.Vec{v}} }

func newTree(t *testing.T, policy PromotePolicy) *Tree[int] {
	t.Helper()
	tr, err := New[int](Config{Metric: dist.EGEDMZero, MaxEntries: 4, Policy: policy, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestNewValidation(t *testing.T) {
	if _, err := New[int](Config{}); err == nil {
		t.Error("nil metric accepted")
	}
	if _, err := New[int](Config{Metric: dist.EGEDMZero, MaxEntries: 2}); err == nil {
		t.Error("tiny MaxEntries accepted")
	}
	tr, err := New[int](Config{Metric: dist.EGEDMZero})
	if err != nil {
		t.Fatal(err)
	}
	if tr.maxEntries != 16 {
		t.Errorf("default MaxEntries = %d, want 16", tr.maxEntries)
	}
}

func TestInsertAndLen(t *testing.T) {
	tr := newTree(t, PromoteRandom)
	for i := 0; i < 50; i++ {
		tr.Insert(point1(float64(i)), i)
	}
	if tr.Len() != 50 {
		t.Errorf("Len = %d, want 50", tr.Len())
	}
	if tr.root.leaf {
		t.Error("root is still a leaf after 50 inserts with capacity 4")
	}
}

func TestKNNExactness(t *testing.T) {
	for _, policy := range []PromotePolicy{PromoteRandom, PromoteSampling} {
		t.Run(policy.String(), func(t *testing.T) {
			tr := newTree(t, policy)
			rng := rand.New(rand.NewSource(3))
			vals := make([]float64, 200)
			for i := range vals {
				vals[i] = rng.Float64() * 1000
				tr.Insert(point1(vals[i]), i)
			}
			for trial := 0; trial < 20; trial++ {
				q := rng.Float64() * 1000
				k := 1 + rng.Intn(10)
				got := tr.KNN(point1(q), k)
				if len(got) != k {
					t.Fatalf("KNN returned %d results, want %d", len(got), k)
				}
				// Brute force reference.
				type pair struct {
					d float64
					i int
				}
				ref := make([]pair, len(vals))
				for i, v := range vals {
					ref[i] = pair{math.Abs(v - q), i}
				}
				sort.Slice(ref, func(a, b int) bool { return ref[a].d < ref[b].d })
				for i := 0; i < k; i++ {
					if math.Abs(got[i].Distance-ref[i].d) > 1e-9 {
						t.Fatalf("trial %d: k=%d result %d distance %v, want %v",
							trial, k, i, got[i].Distance, ref[i].d)
					}
				}
				// Results sorted ascending.
				for i := 1; i < k; i++ {
					if got[i].Distance < got[i-1].Distance {
						t.Fatal("KNN results not sorted")
					}
				}
			}
		})
	}
}

func TestKNNEdgeCases(t *testing.T) {
	tr := newTree(t, PromoteRandom)
	if got := tr.KNN(point1(1), 5); got != nil {
		t.Errorf("KNN on empty tree = %v, want nil", got)
	}
	tr.Insert(point1(10), 1)
	if got := tr.KNN(point1(1), 0); got != nil {
		t.Errorf("KNN with k=0 = %v, want nil", got)
	}
	got := tr.KNN(point1(1), 5)
	if len(got) != 1 {
		t.Errorf("KNN k>size returned %d, want 1", len(got))
	}
}

func TestCoveringRadiusInvariant(t *testing.T) {
	for _, policy := range []PromotePolicy{PromoteRandom, PromoteSampling} {
		t.Run(policy.String(), func(t *testing.T) {
			tr := newTree(t, policy)
			rng := rand.New(rand.NewSource(9))
			for i := 0; i < 300; i++ {
				// Variable-length 2-D sequences: the real workload shape.
				n := 1 + rng.Intn(6)
				seq := make(dist.Sequence, n)
				for j := range seq {
					seq[j] = dist.Vec{rng.Float64() * 100, rng.Float64() * 100}
				}
				tr.Insert(seq, i)
				if i%50 == 49 {
					if err := tr.CheckInvariants(); err != nil {
						t.Fatalf("after %d inserts: %v", i+1, err)
					}
				}
			}
			if err := tr.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestKNNOnSequences(t *testing.T) {
	// End-to-end with real variable-length sequences under EGED_M.
	tr := newTree(t, PromoteSampling)
	rng := rand.New(rand.NewSource(5))
	seqs := make([]dist.Sequence, 120)
	for i := range seqs {
		n := 2 + rng.Intn(5)
		s := make(dist.Sequence, n)
		for j := range s {
			s[j] = dist.Vec{rng.Float64() * 50, rng.Float64() * 50}
		}
		seqs[i] = s
		tr.Insert(s, i)
	}
	q := seqs[7]
	got := tr.KNN(q, 3)
	if len(got) != 3 {
		t.Fatalf("KNN returned %d", len(got))
	}
	if got[0].Payload != 7 || got[0].Distance > 1e-9 {
		t.Errorf("nearest to itself = payload %d at %v", got[0].Payload, got[0].Distance)
	}
	// Brute-force verify.
	bestD, bestI := math.Inf(1), -1
	for i, s := range seqs {
		if i == 7 {
			continue
		}
		if d := dist.EGEDMZero(q, s); d < bestD {
			bestD, bestI = d, i
		}
	}
	if got[1].Payload != bestI {
		t.Errorf("second nearest = %d, want %d", got[1].Payload, bestI)
	}
}

func TestSamplingFewerDistanceCompsAtQuery(t *testing.T) {
	// MT-SA builds tighter regions than MT-RA, so queries should not do
	// meaningfully more distance computations. (Build cost goes the other
	// way; Figure 7(a).)
	build := func(policy PromotePolicy) (*Tree[int], *dist.Counter) {
		var c dist.Counter
		tr, err := New[int](Config{Metric: dist.Counted(dist.EGEDMZero, &c), MaxEntries: 8, Policy: policy, Seed: 2})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(4))
		for i := 0; i < 400; i++ {
			tr.Insert(point1(rng.Float64()*1000), i)
		}
		return tr, &c
	}
	ra, raC := build(PromoteRandom)
	sa, saC := build(PromoteSampling)
	if saC.Count() <= raC.Count() {
		t.Errorf("SAMPLING build cost %d should exceed RANDOM %d", saC.Count(), raC.Count())
	}
	raC.Reset()
	saC.Reset()
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 50; i++ {
		q := point1(rng.Float64() * 1000)
		ra.KNN(q, 10)
		sa.KNN(q, 10)
	}
	if saC.Count() > raC.Count()*3/2 {
		t.Errorf("SAMPLING query cost %d far exceeds RANDOM %d", saC.Count(), raC.Count())
	}
}

func TestHeapOrdering(t *testing.T) {
	h := &minHeap[int]{less: func(a, b int) bool { return a < b }}
	for _, v := range []int{5, 3, 8, 1, 9, 2} {
		h.push(v)
	}
	prev := math.Inf(-1)
	for h.len() > 0 {
		v := float64(h.pop())
		if v < prev {
			t.Fatal("minHeap pop order violated")
		}
		prev = v
	}
	mh := &maxHeap[int]{less: func(a, b int) bool { return a < b }}
	for _, v := range []int{5, 3, 8, 1} {
		mh.push(v)
	}
	if mh.peek() != 8 {
		t.Errorf("maxHeap peek = %d, want 8", mh.peek())
	}
	if got := mh.pop(); got != 8 {
		t.Errorf("maxHeap pop = %d, want 8", got)
	}
}

func TestPolicyString(t *testing.T) {
	if PromoteRandom.String() != "MT-RA" || PromoteSampling.String() != "MT-SA" {
		t.Error("policy names mismatch")
	}
	if got := PromotePolicy(7).String(); got != "PromotePolicy(7)" {
		t.Errorf("unknown policy String = %q", got)
	}
}

func TestDuplicateObjects(t *testing.T) {
	tr := newTree(t, PromoteRandom)
	for i := 0; i < 30; i++ {
		tr.Insert(point1(42), i)
	}
	got := tr.KNN(point1(42), 30)
	if len(got) != 30 {
		t.Fatalf("KNN over duplicates returned %d, want 30", len(got))
	}
	for _, r := range got {
		if r.Distance != 0 {
			t.Errorf("duplicate at distance %v", r.Distance)
		}
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
