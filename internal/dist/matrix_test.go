package dist

import (
	"errors"
	"math/rand"
	"testing"
)

func randSequences(n, minLen, maxLen int, seed int64) []Sequence {
	rng := rand.New(rand.NewSource(seed))
	out := make([]Sequence, n)
	for i := range out {
		l := minLen + rng.Intn(maxLen-minLen+1)
		s := make(Sequence, l)
		for j := range s {
			s[j] = Vec{rng.Float64() * 100, rng.Float64() * 100}
		}
		out[i] = s
	}
	return out
}

func TestCrossMatrixMatchesDirect(t *testing.T) {
	a := randSequences(7, 3, 9, 11)
	b := randSequences(4, 3, 9, 13)
	for _, workers := range []int{1, 3} {
		d, err := CrossMatrix(a, b, EGED, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range a {
			for j := range b {
				if want := EGED(a[i], b[j]); d[i][j] != want {
					t.Fatalf("workers=%d: d[%d][%d] = %v, want %v", workers, i, j, d[i][j], want)
				}
			}
		}
	}
}

func TestCrossMatrixDimensionMismatch(t *testing.T) {
	a := randSequences(3, 2, 4, 3)
	b := []Sequence{{Vec{1, 2, 3}}}
	if _, err := CrossMatrix(a, b, EGED, 2); !errors.Is(err, ErrMatrix) {
		t.Fatalf("err = %v, want ErrMatrix", err)
	}
}

func TestCountedIsExactUnderParallelism(t *testing.T) {
	seqs := randSequences(20, 3, 6, 21)
	var c Counter
	if _, err := CrossMatrix(seqs, seqs, Counted(EGED, &c), 4); err != nil {
		t.Fatal(err)
	}
	if want := int64(len(seqs) * len(seqs)); c.Count() != want {
		t.Errorf("counted %d evaluations, want %d", c.Count(), want)
	}
}
