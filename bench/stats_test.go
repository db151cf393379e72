package main

import (
	"math"
	"testing"
)

func TestPercentileRule(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	// 100 samples: p90 has exactly 10 beyond it, p95 only 5.
	if v, err := percentile(xs, 0.90); err != nil || v != 90 {
		t.Fatalf("p90 of 1..100 = %v, %v; want 90, nil", v, err)
	}
	if _, err := percentile(xs, 0.95); err == nil {
		t.Fatal("p95 of 100 samples was reported: only 5 samples lie beyond it")
	}
	if _, err := percentile(xs[:99], 0.90); err == nil {
		t.Fatal("p90 of 99 samples was reported: only 9 samples lie beyond it")
	}
	if v, err := percentile(make([]float64, 1000), 0.99); err != nil || v != 0 {
		t.Fatalf("p99 of 1000 samples refused: %v", err)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([3.1, 2.9, 3.0, 3.4, 2.7], n=4) == [2.8, 3.0, 3.25]
	q1, q2, q3 = quartiles([]float64{3.1, 2.9, 3.0, 3.4, 2.7})
	if math.Abs(q1-2.8) > 1e-12 || q2 != 3.0 || math.Abs(q3-3.25) > 1e-12 {
		t.Fatalf("quartiles = %v %v %v, want 2.8 3.0 3.25", q1, q2, q3)
	}
	if s := spread([]float64{3.1, 2.9, 3.0, 3.4, 2.7}); math.Abs(s-0.15) > 1e-12 {
		t.Fatalf("spread = %v, want 0.15", s)
	}
}

func TestVerdict(t *testing.T) {
	lower := metricSpec{Name: "p50", Better: "lower", Bound: 0.10}
	steady := []float64{10, 10.1, 9.9, 10.05, 9.95}
	for _, tc := range []struct {
		name string
		m    metricSpec
		a, b []float64
		want string
	}{
		{"same", lower, steady, steady, "unchanged"},
		{"worse by 20%", lower, steady, []float64{12, 12.1, 11.9, 12.05, 11.95}, "regressed"},
		{"noisy and overlapping", lower, steady, []float64{8, 12, 9, 14, 10}, "unresolved"},
		{"noisy but every run better", lower, steady, []float64{5, 8, 6, 9, 7}, "unchanged"},
		{"throughput down 20%", metricSpec{Better: "higher", Bound: 0.10}, steady, []float64{8, 8.1, 7.9, 8.05, 7.95}, "regressed"},
	} {
		if got, _ := verdict(tc.m, tc.a, tc.b); got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}
}
