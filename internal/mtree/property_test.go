package mtree

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"strgindex/internal/dist"
)

// TestKNNMatchesBruteForceProperty drives randomized tree shapes, metrics
// and queries through quick.Check: for every configuration the k-NN
// distances must equal the brute-force answer.
func TestKNNMatchesBruteForceProperty(t *testing.T) {
	f := func(seed int64, policyBit bool, capSel uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		policy := PromoteRandom
		if policyBit {
			policy = PromoteSampling
		}
		capacity := 4 + int(capSel%13)
		tr, err := New[int](Config{
			Metric:     dist.EGEDMZero,
			MaxEntries: capacity,
			Policy:     policy,
			Seed:       seed,
		})
		if err != nil {
			return false
		}
		n := 30 + rng.Intn(120)
		seqs := make([]dist.Sequence, n)
		for i := range seqs {
			m := 1 + rng.Intn(5)
			s := make(dist.Sequence, m)
			for j := range s {
				s[j] = dist.Vec{rng.Float64() * 200, rng.Float64() * 200}
			}
			seqs[i] = s
			tr.Insert(s, i)
		}
		q := dist.Sequence{{rng.Float64() * 200, rng.Float64() * 200}}
		k := 1 + rng.Intn(8)
		got := tr.KNN(q, k)
		ref := make([]float64, n)
		for i, s := range seqs {
			ref[i] = dist.EGEDMZero(q, s)
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
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestInvariantHoldsUnderRandomInserts keeps the covering-radius invariant
// across randomized insert orders and node capacities.
func TestInvariantHoldsUnderRandomInserts(t *testing.T) {
	f := func(seed int64, capSel uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		tr, err := New[int](Config{
			Metric:     dist.EGEDMZero,
			MaxEntries: 4 + int(capSel%10),
			Policy:     PromoteSampling,
			Seed:       seed,
		})
		if err != nil {
			return false
		}
		for i := 0; i < 150; i++ {
			m := 1 + rng.Intn(4)
			s := make(dist.Sequence, m)
			for j := range s {
				s[j] = dist.Vec{rng.NormFloat64() * 50, rng.NormFloat64() * 50}
			}
			tr.Insert(s, i)
		}
		return tr.CheckInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}
