package dist

import (
	"math"
	"math/rand"
	"strings"
	"testing"
)

// colSequences builds deterministic random 2-D sequences, including some
// empty ones, for layout and kernel cross-checks.
func colSequences(rng *rand.Rand, n int) []Sequence { return colSequencesDim(rng, n, 2) }

// colSequencesDim is colSequences in an arbitrary dimension.
func colSequencesDim(rng *rand.Rand, n, dim int) []Sequence {
	seqs := make([]Sequence, n)
	for i := range seqs {
		l := rng.Intn(12)
		if l == 0 {
			continue
		}
		s := make(Sequence, l)
		for j := range s {
			s[j] = make(Vec, dim)
			for k := range s[j] {
				s[j][k] = rng.NormFloat64() * 40
			}
		}
		seqs[i] = s
	}
	return seqs
}

// checkBatchIdentity asserts the batched kernel's whole contract on one
// (query, candidate, gap, threshold) tuple: value bits, abandon decision
// and the eval/cell accounting deltas all equal EGEDWithUB's.
func checkBatchIdentity(t *testing.T, arena *Batch, q, cand Sequence, g Vec, ub float64) {
	t.Helper()
	e0, c0 := TotalEvals(), DPCells()
	wantD, wantAb := EGEDWithUB(q, cand, GapConstant, g, ub)
	e1, c1 := TotalEvals(), DPCells()
	gotD, gotAb := arena.DistanceUB(FromSequence(cand), ub)
	e2, c2 := TotalEvals(), DPCells()
	if gotAb != wantAb || math.Float64bits(gotD) != math.Float64bits(wantD) {
		t.Fatalf("q=%v cand=%v g=%v ub=%v: batch=(%v,%v) per-pair=(%v,%v)",
			q, cand, g, ub, gotD, gotAb, wantD, wantAb)
	}
	if e2-e1 != e1-e0 || c2-c1 != c1-c0 {
		t.Fatalf("q=%v cand=%v g=%v ub=%v: accounting differs: batch evals=%d cells=%d, per-pair evals=%d cells=%d",
			q, cand, g, ub, e2-e1, c2-c1, e1-e0, c1-c0)
	}
}

func sameBits(a, b Sequence) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for k := range a[i] {
			if math.Float64bits(a[i][k]) != math.Float64bits(b[i][k]) {
				return false
			}
		}
	}
	return true
}

// TestColumnarRoundTrip is the layout property test: FromSequence →
// Block.Sequence preserves every float64 bit and the empty/non-empty
// structure.
func TestColumnarRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(401))
	for trial := 0; trial < 50; trial++ {
		for i, s := range colSequences(rng, rng.Intn(9)) {
			back := FromSequence(s).Sequence()
			if !sameBits(s, back) {
				t.Fatalf("trial %d seq %d: round trip changed bits: %v -> %v", trial, i, s, back)
			}
			if len(s) == 0 && back != nil {
				t.Fatalf("trial %d seq %d: empty sequence came back non-nil", trial, i)
			}
		}
	}
}

// TestColumnarViewsShareBuffer: Block.Sequence returns views into the
// block's buffer (the one-copy-two-paths invariant), not fresh copies.
func TestColumnarViewsShareBuffer(t *testing.T) {
	b := FromSequence(Sequence{{1, 2}, {3, 4}, {5, 6}})
	view := b.Sequence()
	b.Data()[2] = 99 // second row, first coordinate
	if view[1][0] != 99 {
		t.Fatalf("view did not observe buffer write: %v", view)
	}
	row := b.Row(1)
	if &row[0] != &view[1][0] {
		t.Fatal("Row and Sequence views do not alias the same memory")
	}
}

func TestBlockOf(t *testing.T) {
	if _, err := BlockOf(make([]float64, 5), 2, 2); err == nil {
		t.Fatal("BlockOf accepted 5 floats as a 2x2 block")
	}
	if _, err := BlockOf(nil, -1, 2); err == nil {
		t.Fatal("BlockOf accepted negative n")
	}
	b, err := BlockOf([]float64{1, 2, 3, 4, 5, 6}, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !sameBits(b.Sequence(), Sequence{{1, 2}, {3, 4}, {5, 6}}) {
		t.Fatalf("BlockOf decoded wrong rows: %v", b.Sequence())
	}
	empty, err := BlockOf(nil, 0, 0)
	if err != nil || empty.Len() != 0 || empty.Sequence() != nil {
		t.Fatalf("BlockOf empty = (%v, %v)", empty, err)
	}
}

func TestFromSequencePanicsOnRagged(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("FromSequence accepted a ragged sequence")
		}
	}()
	FromSequence(Sequence{{1, 2}, {3}})
}

// TestBatchKernelBitIdentity is the batched kernel's core contract: for
// random pairs in dimensions 1 to 4 (2 takes the flat dimension-2 body,
// the rest the generic loop), with the zero gap and an explicit non-zero
// one, empty sides included, and thresholds from 0 through mid distances
// to +Inf, Batch.DistanceUB returns the same bits, the same abandon
// decision, and the same eval/cell accounting deltas as EGEDWithUB on the
// corresponding sequences.
func TestBatchKernelBitIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(402))
	for dim := 1; dim <= 4; dim++ {
		gaps := []Vec{nil, Vec{3, -7, 11, -2}[:dim]}
		for trial := 0; trial < 40; trial++ {
			seqs := colSequencesDim(rng, 7, dim)
			if trial%8 == 7 {
				seqs[0] = nil // an empty query against empty and non-empty candidates
			}
			q := seqs[0]
			g := gaps[trial%len(gaps)]
			pooled := NewBatchQuery(FromSequence(q), g)
			if want := dim == 2 && len(q) > 0; pooled.planar != want {
				t.Fatalf("dim %d, %d-sample query: planar = %v, want %v", dim, len(q), pooled.planar, want)
			}
			arena := pooled.NewBatch()
			for _, cand := range seqs[1:] {
				exact := EGEDM(q, cand, g)
				for _, ub := range []float64{math.Inf(1), exact, exact * 0.75, exact * 0.25, 0} {
					checkBatchIdentity(t, arena, q, cand, g, ub)
					// The pooled one-shot form is the same kernel.
					wantD, wantAb := EGEDWithUB(q, cand, GapConstant, g, ub)
					gotD, gotAb := pooled.DistanceUB(FromSequence(cand), ub)
					if gotAb != wantAb || math.Float64bits(gotD) != math.Float64bits(wantD) {
						t.Fatalf("dim %d trial %d ub=%v: pooled=(%v,%v) per-pair=(%v,%v)",
							dim, trial, ub, gotD, gotAb, wantD, wantAb)
					}
				}
			}
		}
	}
}

// TestBatchNonFiniteTakesGenericLoop: the dimension-2 body is selected
// only when every hoisted gap cost is finite. NaN, ±Inf or overflowing
// input — on the query, the candidate or the gap — must come out of the
// generic loop with exactly EGEDWithUB's bits (math.Min's NaN included),
// and must not poison the arena for the finite candidate that follows.
func TestBatchNonFiniteTakesGenericLoop(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	fin := Sequence{{1, 2}, {3, 4}, {-5, 6}}
	for _, tc := range []struct {
		name    string
		q, cand Sequence
		g       Vec
	}{
		{"NaN in query", Sequence{{1, nan}, {3, 4}}, fin, nil},
		{"NaN in candidate", fin, Sequence{{0, 0}, {nan, 1}, {2, 2}}, nil},
		{"+Inf in query", Sequence{{inf, 0}, {1, 1}}, fin, nil},
		{"-Inf in candidate", fin, Sequence{{1, 1}, {0, -inf}}, nil},
		{"Inf on both sides", Sequence{{inf, 0}}, Sequence{{inf, 0}, {1, 1}}, nil},
		{"overflowing query gap cost", Sequence{{1e308, 1e308}, {1, 1}}, fin, nil},
		{"overflowing candidate gap cost", fin, Sequence{{1, 1}, {-1e200, 1e200}}, nil},
		{"overflowing gap sum only", fin, Sequence{{1e308, 0}, {1e308, 0}, {1e308, 0}}, nil},
		{"NaN gap", fin, fin, Vec{nan, 0}},
		{"Inf gap", fin, fin, Vec{0, inf}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			arena := NewBatchQuery(FromSequence(tc.q), tc.g).NewBatch()
			if arena.bq.planar {
				if _, _, ok := arena.distance2(FromSequence(tc.cand), inf); ok {
					t.Fatal("the dimension-2 body accepted non-finite input")
				}
			}
			for _, ub := range []float64{inf, 10, 0} {
				checkBatchIdentity(t, arena, tc.q, tc.cand, tc.g, ub)
				checkBatchIdentity(t, arena, tc.q, fin, tc.g, ub)
			}
		})
	}
}

// TestBatchDimensionMismatchPanics: a mismatched candidate, gap or query
// must reach Norm's dimension panic (which CrossMatrix
// recover as ErrMatrix) — never an index out of range inside the flat
// loop. Blocks cannot be ragged (FromSequence refuses), so mismatch is
// the only way dimensions go wrong here.
func TestBatchDimensionMismatchPanics(t *testing.T) {
	two := Sequence{{1, 2}, {3, 4}}
	three := Sequence{{1, 2, 3}, {4, 5, 6}}
	for _, tc := range []struct {
		name string
		run  func()
	}{
		{"2-D query, 3-D candidate", func() {
			NewBatchQuery(FromSequence(two), nil).NewBatch().DistanceUB(FromSequence(three), math.Inf(1))
		}},
		{"3-D query, 2-D candidate", func() {
			NewBatchQuery(FromSequence(three), nil).NewBatch().DistanceUB(FromSequence(two), math.Inf(1))
		}},
		{"2-D query, 3-D gap", func() { NewBatchQuery(FromSequence(two), Vec{0, 0, 0}) }},
		{"empty query, 3-D gap, 2-D candidate", func() {
			NewBatchQuery(Block{}, Vec{0, 0, 0}).NewBatch().DistanceUB(FromSequence(two), math.Inf(1))
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				msg, _ := recover().(string)
				if !strings.HasPrefix(msg, "dist: dimension mismatch") {
					t.Fatalf("recovered %q, want Norm's dimension-mismatch panic", msg)
				}
			}()
			tc.run()
			t.Fatal("no panic")
		})
	}
}

// TestBatchNegativeZero: −0 coordinates square to +0 like +0 ones, so
// they must not move a bit of any result — against the reference kernel,
// and against the same sequences with the sign of every zero flipped.
func TestBatchNegativeZero(t *testing.T) {
	negZero := math.Copysign(0, -1)
	for _, tc := range []struct {
		name          string
		q, cand       Sequence
		qPos, candPos Sequence
		g             Vec
	}{
		{"−0 in query", Sequence{{negZero, 1}, {2, negZero}}, Sequence{{0, 1}, {2, 3}},
			Sequence{{0, 1}, {2, 0}}, Sequence{{0, 1}, {2, 3}}, nil},
		{"−0 in candidate", Sequence{{1, 1}}, Sequence{{negZero, negZero}, {1, 1}},
			Sequence{{1, 1}}, Sequence{{0, 0}, {1, 1}}, nil},
		{"all zeros, mixed signs", Sequence{{negZero, 0}, {0, negZero}}, Sequence{{0, 0}, {negZero, negZero}},
			Sequence{{0, 0}, {0, 0}}, Sequence{{0, 0}, {0, 0}}, nil},
		{"−0 gap", Sequence{{1, 2}, {0, negZero}}, Sequence{{3, 4}},
			Sequence{{1, 2}, {0, 0}}, Sequence{{3, 4}}, Vec{negZero, negZero}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			arena := NewBatchQuery(FromSequence(tc.q), tc.g).NewBatch()
			gPos := tc.g
			if gPos != nil {
				gPos = Vec{0, 0}
			}
			for _, ub := range []float64{math.Inf(1), 1, 0} {
				checkBatchIdentity(t, arena, tc.q, tc.cand, tc.g, ub)
				got, gotAb := arena.DistanceUB(FromSequence(tc.cand), ub)
				want, wantAb := EGEDWithUB(tc.qPos, tc.candPos, GapConstant, gPos, ub)
				if gotAb != wantAb || math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("ub=%v: with −0 (%v,%v), with +0 (%v,%v)", ub, got, gotAb, want, wantAb)
				}
			}
		})
	}
}

// TestBatchCascadeMatchesDistanceUB: the cascade's batch entry point must
// agree with its per-pair DistanceUB (the property search relies on).
func TestBatchCascadeMatchesDistanceUB(t *testing.T) {
	rng := rand.New(rand.NewSource(404))
	seqs := colSequences(rng, 8)
	casc := EGEDMCascade(Vec{1, 1})
	bc, ok := casc.(BatchCascade)
	if !ok {
		t.Fatal("EGEDMCascade does not implement BatchCascade")
	}
	q := seqs[0]
	arena := bc.BatchQuery(q).NewBatch()
	for i, cand := range seqs[1:] {
		for _, ub := range []float64{math.Inf(1), 50} {
			wantD, wantAb := casc.DistanceUB(q, cand, ub)
			gotD, gotAb := arena.DistanceUB(FromSequence(cand), ub)
			if gotAb != wantAb || math.Float64bits(gotD) != math.Float64bits(wantD) {
				t.Fatalf("cand %d ub=%v: batch=(%v,%v) cascade=(%v,%v)", i, ub, gotD, gotAb, wantD, wantAb)
			}
		}
	}
}
