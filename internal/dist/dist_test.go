package dist

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// seq1 builds a 1-D sequence from scalars.
func seq1(vals ...float64) Sequence {
	s := make(Sequence, len(vals))
	for i, v := range vals {
		s[i] = Vec{v}
	}
	return s
}

// seq2 builds a 2-D sequence from (x, y) pairs.
func seq2(pairs ...[2]float64) Sequence {
	s := make(Sequence, len(pairs))
	for i, p := range pairs {
		s[i] = Vec{p[0], p[1]}
	}
	return s
}

func almostEq(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestNorm(t *testing.T) {
	tests := []struct {
		name string
		a, b Vec
		want float64
	}{
		{"1-D", Vec{3}, Vec{7}, 4},
		{"2-D", Vec{0, 0}, Vec{3, 4}, 5},
		{"identical", Vec{1, 2, 3}, Vec{1, 2, 3}, 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Norm(tt.a, tt.b); !almostEq(got, tt.want) {
				t.Errorf("Norm = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestNormPanicsOnDimMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Norm with mismatched dims did not panic")
		}
	}()
	Norm(Vec{1}, Vec{1, 2})
}

func TestEGEDMPaperExample(t *testing.T) {
	// Section 3.1: OGr = {0}, OGs = {1,1}, OGt = {2,2,3} with g = 0:
	// EGED_M(r,t) = 7, EGED_M(r,s) = 2, EGED_M(s,t) = 5 and 7 <= 2 + 5.
	r := seq1(0)
	s := seq1(1, 1)
	tt := seq1(2, 2, 3)
	if got := EGEDM(r, tt, nil); !almostEq(got, 7) {
		t.Errorf("EGEDM(r, t) = %v, want 7", got)
	}
	if got := EGEDM(r, s, nil); !almostEq(got, 2) {
		t.Errorf("EGEDM(r, s) = %v, want 2", got)
	}
	if got := EGEDM(s, tt, nil); !almostEq(got, 5) {
		t.Errorf("EGEDM(s, t) = %v, want 5", got)
	}
}

func TestEGEDIdentity(t *testing.T) {
	for _, s := range []Sequence{seq1(1), seq1(3, 1, 4, 1, 5), seq2([2]float64{1, 2}, [2]float64{3, 4})} {
		if got := EGED(s, s); !almostEq(got, 0) {
			t.Errorf("EGED(s, s) = %v, want 0", got)
		}
		if got := EGEDM(s, s, nil); !almostEq(got, 0) {
			t.Errorf("EGEDM(s, s) = %v, want 0", got)
		}
	}
}

func TestEGEDEmptySequences(t *testing.T) {
	s := seq1(1, 2, 3)
	if got := EGED(nil, nil); got != 0 {
		t.Errorf("EGED(nil, nil) = %v, want 0", got)
	}
	// Gapping the whole of s against empty with constant zero gap = sum of norms.
	if got := EGEDM(s, nil, Vec{0}); !almostEq(got, 6) {
		t.Errorf("EGEDM(s, nil) = %v, want 6", got)
	}
	if got := EGEDM(nil, s, Vec{0}); !almostEq(got, 6) {
		t.Errorf("EGEDM(nil, s) = %v, want 6", got)
	}
}

func TestEGEDLocalTimeShift(t *testing.T) {
	// The adaptive gap makes a locally shifted copy cheap: the gapped
	// element costs |v_i - (v_{i-1}+v_i)/2| = half a step.
	a := seq1(0, 1, 2, 3, 4, 5)
	b := seq1(0, 1, 1, 2, 3, 4, 5) // element repeated: local shift
	shifted := EGED(a, b)
	if shifted > 0.51 {
		t.Errorf("EGED under local shift = %v, want <= 0.5", shifted)
	}
	// The metric variant with zero gap pays the full |v| for the same gap.
	metric := EGEDM(a, b, Vec{0})
	if metric <= shifted {
		t.Errorf("EGEDM (%v) should exceed non-metric EGED (%v) on shifted data", metric, shifted)
	}
}

func TestEGEDPaperExampleNonMetric(t *testing.T) {
	// Section 3.1's triangle-inequality counterexample, verbatim:
	// EGED(r,t) = 7 > EGED(r,s) + EGED(s,t) = 2 + 4.
	r := seq1(0)
	s := seq1(1, 1)
	tt := seq1(2, 2, 3)
	if got := EGED(r, tt); !almostEq(got, 7) {
		t.Errorf("EGED(r, t) = %v, want 7", got)
	}
	if got := EGED(r, s); !almostEq(got, 2) {
		t.Errorf("EGED(r, s) = %v, want 2", got)
	}
	if got := EGED(s, tt); !almostEq(got, 4) {
		t.Errorf("EGED(s, t) = %v, want 4", got)
	}
	if EGED(r, tt) <= EGED(r, s)+EGED(s, tt) {
		t.Error("expected the paper's triangle-inequality violation")
	}
}

func TestEGEDConstantSequencesNotCollapsed(t *testing.T) {
	// Gap costs are referenced against the other sequence, so two steady
	// trajectories far apart stay far apart regardless of length.
	flat0 := seq1(0, 0, 0, 0, 0)
	flat100 := seq1(100, 100, 100)
	if got := EGED(flat0, flat100); got < 300 {
		t.Errorf("EGED(flat0, flat100) = %v, want >= 300", got)
	}
}

func TestEGEDMMetricAxioms(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	mk := func() Sequence {
		n := 1 + rng.Intn(6)
		s := make(Sequence, n)
		for i := range s {
			s[i] = Vec{rng.Float64() * 10, rng.Float64() * 10}
		}
		return s
	}
	g := Vec{0, 0}
	for trial := 0; trial < 500; trial++ {
		a, b, c := mk(), mk(), mk()
		dab := EGEDM(a, b, g)
		dba := EGEDM(b, a, g)
		if !almostEq(dab, dba) {
			t.Fatalf("trial %d: not symmetric: %v vs %v", trial, dab, dba)
		}
		if dab < 0 {
			t.Fatalf("trial %d: negative distance %v", trial, dab)
		}
		if got := EGEDM(a, a, g); !almostEq(got, 0) {
			t.Fatalf("trial %d: EGEDM(a, a) = %v", trial, got)
		}
		dac := EGEDM(a, c, g)
		dbc := EGEDM(b, c, g)
		if dac > dab+dbc+1e-9 {
			t.Fatalf("trial %d: triangle violation: d(a,c)=%v > d(a,b)+d(b,c)=%v", trial, dac, dab+dbc)
		}
	}
}

func TestEGEDMNonZeroGap(t *testing.T) {
	a := seq1(5)
	b := seq1(5, 9)
	// Gapping 9 against g=10 costs 1; matching 5-5 costs 0.
	if got := EGEDM(a, b, Vec{10}); !almostEq(got, 1) {
		t.Errorf("EGEDM with g=10 = %v, want 1", got)
	}
}

func TestGapRefModels(t *testing.T) {
	other := seq1(1, 5, 9)
	tests := []struct {
		name  string
		model GapModel
		j     int
		want  float64
	}{
		{"midpoint start", GapMidpoint, 0, 1},
		{"midpoint interior", GapMidpoint, 1, 3},
		{"midpoint interior 2", GapMidpoint, 2, 7},
		{"midpoint past end", GapMidpoint, 3, 9},
		{"previous start", GapPrevious, 0, 1},
		{"previous interior", GapPrevious, 2, 5},
	}
	// gapCost(model, x, other, ...) is Norm(x, ref); probing with x = {0}
	// reads the reference value back out.
	zero := Vec{0}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			got := gapCost(tc.model, zero, other, tc.j, 1, nil)
			if !almostEq(got, tc.want) {
				t.Errorf("gapCost = %v, want %v", got, tc.want)
			}
		})
	}
	if got := gapCost(GapConstant, zero, other, 1, 1, Vec{42}); !almostEq(got, 42) {
		t.Errorf("constant gapCost = %v, want 42", got)
	}
	if got := gapCost(GapMidpoint, Vec{0, 0, 0}, nil, 0, 3, nil); got != 0 {
		t.Errorf("empty-other gapCost = %v, want 0 against the zero vec", got)
	}
}

func TestDTWKnownValues(t *testing.T) {
	tests := []struct {
		name string
		a, b Sequence
		want float64
	}{
		{"identical", seq1(1, 2, 3), seq1(1, 2, 3), 0},
		{"stretched copy is free", seq1(1, 2, 3), seq1(1, 1, 2, 2, 3, 3), 0},
		{"constant offset", seq1(0, 0, 0), seq1(1, 1, 1), 3},
		{"both empty", nil, nil, 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := DTW(tt.a, tt.b); !almostEq(got, tt.want) {
				t.Errorf("DTW = %v, want %v", got, tt.want)
			}
		})
	}
	if got := DTW(seq1(1), nil); !math.IsInf(got, 1) {
		t.Errorf("DTW(x, empty) = %v, want +Inf", got)
	}
}

func TestDTWSymmetric(t *testing.T) {
	f := func(aRaw, bRaw []uint8) bool {
		if len(aRaw) == 0 || len(bRaw) == 0 {
			return true
		}
		a := make(Sequence, len(aRaw))
		for i, v := range aRaw {
			a[i] = Vec{float64(v)}
		}
		b := make(Sequence, len(bRaw))
		for i, v := range bRaw {
			b[i] = Vec{float64(v)}
		}
		return almostEq(DTW(a, b), DTW(b, a))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestLCSLength(t *testing.T) {
	tests := []struct {
		name string
		a, b Sequence
		eps  float64
		want int
	}{
		{"identical", seq1(1, 2, 3), seq1(1, 2, 3), 0.1, 3},
		{"disjoint", seq1(1, 2), seq1(10, 20), 0.1, 0},
		{"classic", seq1(1, 3, 5, 7), seq1(1, 5, 7, 9), 0.1, 3},
		{"eps matching", seq1(1, 2), seq1(1.05, 2.05), 0.1, 2},
		{"empty", nil, seq1(1), 0.1, 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := LCSLength(tt.a, tt.b, tt.eps); got != tt.want {
				t.Errorf("LCSLength = %d, want %d", got, tt.want)
			}
		})
	}
}

func TestLCSDist(t *testing.T) {
	if got := LCSDist(seq1(1, 2, 3), seq1(1, 2, 3), 0.1); !almostEq(got, 0) {
		t.Errorf("LCSDist(identical) = %v, want 0", got)
	}
	if got := LCSDist(seq1(1, 2), seq1(10, 20), 0.1); !almostEq(got, 1) {
		t.Errorf("LCSDist(disjoint) = %v, want 1", got)
	}
	if got := LCSDist(nil, nil, 0.1); got != 0 {
		t.Errorf("LCSDist(nil, nil) = %v, want 0", got)
	}
	if got := LCSDist(nil, seq1(1), 0.1); got != 1 {
		t.Errorf("LCSDist(nil, x) = %v, want 1", got)
	}
	m := LCSMetric(0.1)
	if got := m(seq1(1, 2, 3), seq1(1, 9, 3)); !almostEq(got, 1.0/3.0) {
		t.Errorf("LCSMetric = %v, want 1/3", got)
	}
}

func TestResample(t *testing.T) {
	s := seq1(0, 10)
	got := Resample(s, 5)
	want := []float64{0, 2.5, 5, 7.5, 10}
	for i := range want {
		if !almostEq(got[i][0], want[i]) {
			t.Errorf("Resample[%d] = %v, want %v", i, got[i][0], want[i])
		}
	}
	// Upsampling preserves endpoints; downsampling too.
	down := Resample(seq1(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10), 3)
	if !almostEq(down[0][0], 0) || !almostEq(down[2][0], 10) {
		t.Errorf("Resample endpoints = %v, %v", down[0][0], down[2][0])
	}
	if !almostEq(down[1][0], 5) {
		t.Errorf("Resample midpoint = %v, want 5", down[1][0])
	}
	single := Resample(seq1(7), 3)
	for _, v := range single {
		if !almostEq(v[0], 7) {
			t.Errorf("Resample single = %v, want 7", v[0])
		}
	}
}

func TestResampleDoesNotAliasInput(t *testing.T) {
	s := seq1(1, 2)
	out := Resample(s, 2)
	out[0][0] = 99
	if s[0][0] != 1 {
		t.Error("Resample aliased input storage")
	}
}

func TestSequenceCloneIndependent(t *testing.T) {
	s := seq2([2]float64{1, 2}, [2]float64{3, 4})
	c := s.Clone()
	c[0][0] = 99
	if s[0][0] != 1 {
		t.Error("Clone aliased input storage")
	}
	if s.Dim() != 2 {
		t.Errorf("Dim = %d, want 2", s.Dim())
	}
	var empty Sequence
	if empty.Dim() != 0 {
		t.Error("Dim of empty != 0")
	}
}

func TestCounter(t *testing.T) {
	var c Counter
	m := Counted(EGEDMZero, &c)
	a, b := seq1(1, 2), seq1(3)
	for i := 0; i < 5; i++ {
		m(a, b)
	}
	if c.Count() != 5 {
		t.Errorf("Count = %d, want 5", c.Count())
	}
	c.Reset()
	if c.Count() != 0 {
		t.Errorf("Count after Reset = %d, want 0", c.Count())
	}
}

func TestEGEDWithDTWGapApproximatesRepetitionTolerance(t *testing.T) {
	// With the previous-value gap, an element repeated while the other
	// sequence stands at the same value costs nothing extra.
	a := seq1(5, 10, 20)
	b := seq1(5, 5, 10, 20)
	withPrev := EGEDWith(a, b, GapPrevious, nil)
	withZero := EGEDWith(a, b, GapConstant, nil)
	if withPrev >= withZero {
		t.Errorf("previous-gap (%v) should beat zero-gap (%v) on repeated data", withPrev, withZero)
	}
	if !almostEq(withPrev, 0) {
		t.Errorf("previous-gap on stretched copy = %v, want 0", withPrev)
	}
}
