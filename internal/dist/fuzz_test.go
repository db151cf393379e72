package dist

import (
	"encoding/binary"
	"math"
	"testing"
)

// decodeFuzzSequences turns fuzz bytes into two small 2-D sequences with
// finite coordinates (int16 sixteenths keep magnitudes sane while still
// exercising negatives, zeros, and large values).
func decodeFuzzSequences(data []byte) (a, b Sequence) {
	if len(data) == 0 {
		return nil, nil
	}
	la := int(data[0]) % 13
	lb := int(data[0]>>4) % 13
	data = data[1:]
	next := func() float64 {
		if len(data) == 0 {
			return 0
		}
		var v int16
		if len(data) == 1 {
			v = int16(data[0])
			data = nil
		} else {
			v = int16(binary.LittleEndian.Uint16(data))
			data = data[2:]
		}
		return float64(v) / 16
	}
	a = make(Sequence, la)
	for i := range a {
		a[i] = Vec{next(), next()}
	}
	b = make(Sequence, lb)
	for i := range b {
		b[i] = Vec{next(), next()}
	}
	return a, b
}

// decodeFuzzShape reads the columnar target's shape byte — the last byte
// of inputs at least two long, so the seeds that predate it keep their
// lengths and coordinates — and returns the remaining data with the
// decoded choices: the sample dimension (2 five times in eight, since
// that is the body under test; otherwise 1, 3 or 4), whether the gap is
// explicit and non-zero, and a special value to plant in one coordinate
// (0 for none; otherwise NaN, +Inf, or a magnitude whose square
// overflows) together with where.
func decodeFuzzShape(data []byte) (rest []byte, dim int, explicitGap bool, special float64, at int) {
	if len(data) < 2 {
		return data, 2, false, 0, 0
	}
	s := data[len(data)-1]
	rest = data[:len(data)-1]
	dim = [8]int{2, 2, 2, 2, 2, 1, 3, 4}[s&7]
	explicitGap = s&0x08 != 0
	special = [4]float64{0, math.NaN(), math.Inf(1), 1e200}[(s>>4)&3]
	return rest, dim, explicitGap, special, int(s >> 6)
}

// redim pads or truncates every sample of s to dim coordinates (new
// coordinates repeat the first, so they are not all zero).
func redim(s Sequence, dim int) Sequence {
	out := make(Sequence, len(s))
	for i, v := range s {
		out[i] = make(Vec, dim)
		for k := range out[i] {
			out[i][k] = v[k%len(v)]
		}
	}
	return out
}

// FuzzEGEDKernels cross-checks the distance kernels against each other on
// arbitrary sequences: the early-abandoning forms must be bit-identical
// to the exact forms whenever they do not abandon (and must never abandon
// at ub = +Inf or ub = the exact distance), an abandoned result must be
// an admissible lower bound strictly above the cutoff, and every cascade
// lower bound must stay at or below the exact distance it gates.
func FuzzEGEDKernels(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x32, 10, 0, 20, 0, 30, 0, 40, 0, 50, 0})
	f.Add([]byte{0x11, 0xff, 0x7f, 0x00, 0x80}) // extreme coordinates
	f.Add([]byte{0x05})                         // one empty side
	f.Add([]byte{0xcc, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16})

	f.Fuzz(func(t *testing.T, data []byte) {
		a, b := decodeFuzzSequences(data)

		exact := EGEDMZero(a, b)
		if math.IsNaN(exact) || exact < 0 {
			t.Fatalf("EGEDMZero = %v on finite input", exact)
		}
		if d, ab := EGEDMZeroUB(a, b, math.Inf(1)); ab || math.Float64bits(d) != math.Float64bits(exact) {
			t.Fatalf("EGEDMZeroUB(+Inf) = (%v, %v), want (%v, false) bit-identical", d, ab, exact)
		}
		// The cutoff fires strictly above ub, so ub = exact never abandons.
		if d, ab := EGEDMZeroUB(a, b, exact); ab || math.Float64bits(d) != math.Float64bits(exact) {
			t.Fatalf("EGEDMZeroUB(exact) = (%v, %v), want (%v, false) bit-identical", d, ab, exact)
		}
		if tight := exact / 2; tight < exact {
			d, ab := EGEDMZeroUB(a, b, tight)
			if ab {
				if !(d > tight) || d > exact {
					t.Fatalf("abandoned result %v not in (ub=%v, exact=%v]", d, tight, exact)
				}
			} else if math.Float64bits(d) != math.Float64bits(exact) {
				t.Fatalf("non-abandoned EGEDMZeroUB(%v) = %v, want %v bit-identical", tight, d, exact)
			}
		}

		dtw := DTW(a, b)
		if d, ab := DTWUB(a, b, math.Inf(1)); ab || math.Float64bits(d) != math.Float64bits(dtw) {
			t.Fatalf("DTWUB(+Inf) = (%v, %v), want (%v, false) bit-identical", d, ab, dtw)
		}

		// Lower bounds must be admissible against the distances they prune
		// for; allow a hair of accumulation slack since the bounds and the
		// DP sum in different orders.
		tol := 1e-9 * math.Max(1, exact)
		for _, c := range []struct {
			name  string
			casc  Cascade
			exact float64
		}{
			{"EGEDMCascade", EGEDMCascade(nil), exact},
		} {
			sa, sb := c.casc.Summarize(a), c.casc.Summarize(b)
			if lb := c.casc.LBQuick(a, b, sa, sb); lb > c.exact+tol {
				t.Fatalf("%s.LBQuick = %v exceeds exact %v", c.name, lb, c.exact)
			}
			if lb := c.casc.LBEnvelope(a, sb); lb > c.exact+tol {
				t.Fatalf("%s.LBEnvelope = %v exceeds exact %v", c.name, lb, c.exact)
			}
			if d, ab := c.casc.DistanceUB(a, b, math.Inf(1)); ab || math.Float64bits(d) != math.Float64bits(c.exact) {
				t.Fatalf("%s.DistanceUB(+Inf) = (%v, %v), want (%v, false)", c.name, d, ab, c.exact)
			}
		}
	})
}

// FuzzColumnarKernels cross-checks the columnar layer against the
// sequence kernels on arbitrary inputs — dimensions 1 to 4, the zero gap
// or an explicit one, finite coordinates or a planted NaN, Inf or
// overflowing value: the layout round trip must be bit-exact, the
// batched DP (dimension-2 body and generic loop alike) must match
// EGEDWithUB bit-for-bit (result, abandon decision, and accounting) at
// several thresholds.
func FuzzColumnarKernels(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x32, 10, 0, 20, 0, 30, 0, 40, 0, 50, 0})
	f.Add([]byte{0x11, 0xff, 0x7f, 0x00, 0x80}) // extreme coordinates
	f.Add([]byte{0x05})                         // one empty side
	f.Add([]byte{0xcc, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16})
	// Shape byte last: dim 3; a NaN in the candidate; an explicit gap and
	// an overflowing query coordinate; dim 1 with +Inf.
	f.Add([]byte{0x33, 10, 0, 20, 0, 30, 0, 40, 0, 50, 0, 60, 0, 0x06})
	f.Add([]byte{0x22, 10, 0, 20, 0, 30, 0, 40, 0, 0xd0})
	f.Add([]byte{0x22, 10, 0, 20, 0, 30, 0, 40, 0, 0x38})
	f.Add([]byte{0x23, 1, 0, 2, 0, 3, 0, 4, 0, 5, 0, 0x25})

	f.Fuzz(func(t *testing.T, data []byte) {
		data, dim, explicitGap, special, at := decodeFuzzShape(data)
		a, b := decodeFuzzSequences(data)
		a, b = redim(a, dim), redim(b, dim)
		if special != 0 {
			// Plant it in the candidate when at is odd, else the query.
			if side := [2]Sequence{a, b}[at&1]; len(side) > 0 {
				side[(at>>1)%len(side)][0] = special
			}
		}
		var g Vec
		if explicitGap {
			g = Vec{3, -7, 11, -2}[:dim]
		}

		// Layout round trip preserves every bit and the empty structure.
		blocks := [2]Block{FromSequence(a), FromSequence(b)}
		for i, orig := range []Sequence{a, b} {
			back := blocks[i].Sequence()
			if len(orig) != len(back) {
				t.Fatalf("seq %d: round trip changed length %d -> %d", i, len(orig), len(back))
			}
			for j := range orig {
				for k := range orig[j] {
					if math.Float64bits(orig[j][k]) != math.Float64bits(back[j][k]) {
						t.Fatalf("seq %d sample %d: round trip changed bits", i, j)
					}
				}
			}
		}

		// Batched kernel: bit-identical to the per-pair kernel, including
		// the eval/cell accounting, at +Inf, the exact value, and a cutoff
		// that forces abandonment.
		exact := EGEDM(a, b, g)
		arena := NewBatchQuery(blocks[0], g).NewBatch()
		for _, ub := range []float64{math.Inf(1), exact, exact / 2, 0} {
			e0, c0 := TotalEvals(), DPCells()
			wantD, wantAb := EGEDWithUB(a, b, GapConstant, g, ub)
			e1, c1 := TotalEvals(), DPCells()
			gotD, gotAb := arena.DistanceUB(blocks[1], ub)
			e2, c2 := TotalEvals(), DPCells()
			if gotAb != wantAb || math.Float64bits(gotD) != math.Float64bits(wantD) {
				t.Fatalf("ub=%v: batch=(%v,%v), per-pair=(%v,%v)", ub, gotD, gotAb, wantD, wantAb)
			}
			if e2-e1 != e1-e0 || c2-c1 != c1-c0 {
				t.Fatalf("ub=%v: accounting differs (batch %d evals/%d cells, per-pair %d/%d)",
					ub, e2-e1, c2-c1, e1-e0, c1-c0)
			}
		}
	})
}
