package dist

import (
	"math"
	"math/rand"
	"testing"
)

// lbSequences generates random sequences including empties and singletons,
// the boundary cases of every bound.
func lbSequences(n int, seed int64) []Sequence {
	rng := rand.New(rand.NewSource(seed))
	out := make([]Sequence, n)
	for i := range out {
		l := rng.Intn(10) // 0..9 — empties included on purpose
		s := make(Sequence, l)
		for j := range s {
			s[j] = Vec{rng.Float64()*200 - 100, rng.Float64()*200 - 100}
		}
		out[i] = s
	}
	return out
}

// testCascadeAdmissible checks both lower bounds against the exact metric
// over all sequence pairs.
func testCascadeAdmissible(t *testing.T, name string, c Cascade, seqs []Sequence) {
	t.Helper()
	sums := make([]Summary, len(seqs))
	for i, s := range seqs {
		sums[i] = c.Summarize(s)
	}
	for i, a := range seqs {
		for j, b := range seqs {
			d := c.Metric(a, b)
			if lb := c.LBQuick(a, b, sums[i], sums[j]); lb > d {
				t.Errorf("%s: LBQuick(%d, %d) = %v > metric %v", name, i, j, lb, d)
			}
			if lb := c.LBEnvelope(a, sums[j]); lb > d {
				t.Errorf("%s: LBEnvelope(%d, %d) = %v > metric %v", name, i, j, lb, d)
			}
		}
	}
}

func TestLowerBoundsAdmissible(t *testing.T) {
	seqs := lbSequences(40, 101)
	testCascadeAdmissible(t, "EGEDM(nil)", EGEDMCascade(nil), seqs)
	testCascadeAdmissible(t, "EGEDM(g)", EGEDMCascade(Vec{5, -3}), seqs)
	testCascadeAdmissible(t, "ExactOnly", ExactOnly(EGEDMZero), seqs)
}

// TestLBQuickCompactMatchesLBQuick pins CompactLBer's contract: fed the
// candidate's end elements and summary, the compact bound returns the
// bits LBQuick returns from the whole sequence — empties included.
func TestLBQuickCompactMatchesLBQuick(t *testing.T) {
	seqs := lbSequences(40, 108)
	for name, c := range map[string]Cascade{
		"EGEDM(nil)": EGEDMCascade(nil),
		"EGEDM(g)":   EGEDMCascade(Vec{5, -3}),
	} {
		compact := c.(CompactLBer)
		for i, a := range seqs {
			sa := c.Summarize(a)
			for j, b := range seqs {
				sb := c.Summarize(b)
				var first, last Vec
				if len(b) > 0 {
					first, last = b[0], b[len(b)-1]
				}
				want := c.LBQuick(a, b, sa, sb)
				got := compact.LBQuickCompact(a, sa, first, last, sb)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s(%d, %d): compact %v != LBQuick %v", name, i, j, got, want)
				}
			}
		}
	}
}

// TestExactOnlyNeverAbandons: the degenerate cascade pays the wrapped
// metric in full whatever the threshold.
func TestExactOnlyNeverAbandons(t *testing.T) {
	seqs := lbSequences(10, 109)
	c := ExactOnly(EGEDMZero)
	for _, a := range seqs {
		for _, b := range seqs {
			d, abandoned := c.DistanceUB(a, b, 0)
			if abandoned || math.Float64bits(d) != math.Float64bits(EGEDMZero(a, b)) {
				t.Fatalf("ExactOnly.DistanceUB = (%v, %v), want (%v, false)", d, abandoned, EGEDMZero(a, b))
			}
		}
	}
}

// TestUBInfEqualsExact verifies the ub=+Inf contract bit-for-bit: the
// early-abandoning kernels ARE the exact kernels when the threshold can
// never fire, which is what makes delegating the exact path to them safe.
func TestUBInfEqualsExact(t *testing.T) {
	seqs := lbSequences(30, 102)
	g := Vec{2, 7}
	inf := math.Inf(1)
	for i, a := range seqs {
		for j, b := range seqs {
			for name, pair := range map[string][2]float64{
				"EGEDMZero": {EGEDMZero(a, b), first(EGEDMZeroUB(a, b, inf))},
				"EGEDM(g)":  {EGEDM(a, b, g), first(EGEDMUB(a, b, g, inf))},
				"DTW":       {DTW(a, b), first(DTWUB(a, b, inf))},
			} {
				if math.Float64bits(pair[0]) != math.Float64bits(pair[1]) {
					t.Fatalf("%s(%d, %d): exact %v != UB(+Inf) %v", name, i, j, pair[0], pair[1])
				}
			}
			if _, abandoned := EGEDMUB(a, b, g, inf); abandoned {
				t.Fatalf("EGEDMUB(%d, %d, +Inf) abandoned", i, j)
			}
			if _, abandoned := DTWUB(a, b, inf); abandoned {
				t.Fatalf("DTWUB(%d, %d, +Inf) abandoned", i, j)
			}
		}
	}
}

func first(d float64, _ bool) float64 { return d }

// TestUBAbandonContract: when the kernel abandons, the returned row
// minimum strictly exceeds the threshold and never exceeds the true
// distance; when it completes, the value is the exact distance bit-for-bit.
func TestUBAbandonContract(t *testing.T) {
	seqs := lbSequences(25, 103)
	rng := rand.New(rand.NewSource(104))
	for i, a := range seqs {
		for j, b := range seqs {
			exact := EGEDMZero(a, b)
			ub := rng.Float64() * 300
			d, abandoned := EGEDMZeroUB(a, b, ub)
			if abandoned {
				if !(d > ub) {
					t.Fatalf("(%d, %d): abandoned with rowMin %v <= ub %v", i, j, d, ub)
				}
				if d > exact {
					t.Fatalf("(%d, %d): abandoned rowMin %v > exact %v (not a lower bound)", i, j, d, exact)
				}
			} else if math.Float64bits(d) != math.Float64bits(exact) {
				t.Fatalf("(%d, %d): completed with %v, exact is %v", i, j, d, exact)
			}

			exact = DTW(a, b)
			d, abandoned = DTWUB(a, b, ub)
			if abandoned {
				if !(d > ub) || d > exact {
					t.Fatalf("DTW(%d, %d): abandoned d=%v ub=%v exact=%v", i, j, d, ub, exact)
				}
			} else if math.Float64bits(d) != math.Float64bits(exact) {
				t.Fatalf("DTW(%d, %d): completed with %v, exact is %v", i, j, d, exact)
			}
		}
	}
}

// TestUBNeverAbandonsBelowThreshold: a threshold at or above the true
// distance must never trigger abandonment — that is exactly the guarantee
// the k-NN heap relies on for records that belong in the result set.
func TestUBNeverAbandonsBelowThreshold(t *testing.T) {
	seqs := lbSequences(25, 105)
	for _, a := range seqs {
		for _, b := range seqs {
			exact := EGEDMZero(a, b)
			if d, abandoned := EGEDMZeroUB(a, b, exact); abandoned {
				t.Fatalf("abandoned at ub == exact distance %v (returned %v)", exact, d)
			} else if math.Float64bits(d) != math.Float64bits(exact) {
				t.Fatalf("ub == exact: got %v, want %v", d, exact)
			}
			exact = DTW(a, b)
			if d, abandoned := DTWUB(a, b, exact); abandoned {
				t.Fatalf("DTW abandoned at ub == exact distance %v (returned %v)", exact, d)
			}
		}
	}
}

func TestSummarizeEmptyAndGapSum(t *testing.T) {
	c := EGEDMCascade(nil)
	empty := c.Summarize(nil)
	if empty.Len != 0 || empty.GapSum != 0 {
		t.Fatalf("empty summary = %+v", empty)
	}
	// Distance to the empty sequence is exactly the gap sum.
	s := seq2([2]float64{3, 4}, [2]float64{-6, 8}, [2]float64{0, 5})
	sum := c.Summarize(s)
	if got := EGEDMZero(s, nil); math.Float64bits(got) != math.Float64bits(sum.GapSum) {
		t.Fatalf("EGEDM(s, empty) = %v, GapSum = %v — not bit-identical", got, sum.GapSum)
	}
}

func TestBoxDistInsideAndMonotone(t *testing.T) {
	b := Box{Min: Vec{0, 0}, Max: Vec{10, 10}}
	if d := b.boxDist(Vec{5, 5}); d != 0 {
		t.Fatalf("inside point dist = %v", d)
	}
	if d := b.boxDist(Vec{13, 14}); !almostEq(d, 5) {
		t.Fatalf("corner dist = %v, want 5", d)
	}
	// boxDist is a lower bound on the distance to any member point.
	rng := rand.New(rand.NewSource(106))
	s := make(Sequence, 20)
	for i := range s {
		s[i] = Vec{rng.Float64() * 50, rng.Float64() * 50}
	}
	box := summarizeBox(s)
	for trial := 0; trial < 200; trial++ {
		v := Vec{rng.Float64()*200 - 75, rng.Float64()*200 - 75}
		bd := box.boxDist(v)
		for _, u := range s {
			if n := Norm(v, u); bd > n {
				t.Fatalf("boxDist %v > norm %v", bd, n)
			}
		}
	}
}

func TestDPCellsCounts(t *testing.T) {
	a := lbSequences(1, 107)[0]
	if len(a) == 0 {
		t.Skip("unlucky empty")
	}
	before := DPCells()
	EGEDMZero(a, a)
	if got := DPCells() - before; got <= 0 {
		t.Fatalf("DPCells delta = %d after a full evaluation", got)
	}
	// Early abandonment must record fewer cells than a full evaluation.
	long := make(Sequence, 60)
	far := make(Sequence, 60)
	for i := range long {
		long[i] = Vec{float64(i), 0}
		far[i] = Vec{float64(i), 1e6}
	}
	full := DPCells()
	EGEDMZero(long, far)
	fullCells := DPCells() - full
	ab := DPCells()
	if _, abandoned := EGEDMZeroUB(long, far, 1); !abandoned {
		t.Fatal("expected abandonment at tiny threshold")
	}
	if got := DPCells() - ab; got >= fullCells {
		t.Fatalf("abandoned evaluation recorded %d cells, full recorded %d", got, fullCells)
	}
}
