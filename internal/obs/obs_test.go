package obs

import (
	"context"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeExposition(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_requests_total", "requests served", Labels{"path": "/v1/x", "status": "200"})
	c.Inc()
	c.Add(2)
	if c.Value() != 3 {
		t.Fatalf("counter = %d, want 3", c.Value())
	}
	g := r.Gauge("test_inflight", "in-flight requests", nil)
	g.Inc()
	g.Inc()
	g.Dec()
	if g.Value() != 1 {
		t.Fatalf("gauge = %d, want 1", g.Value())
	}
	var b strings.Builder
	r.WritePrometheus(&b)
	out := b.String()
	for _, want := range []string{
		"# TYPE test_requests_total counter",
		`test_requests_total{path="/v1/x",status="200"} 3`,
		"# TYPE test_inflight gauge",
		"test_inflight 1",
		"# HELP test_requests_total requests served",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestGetOrCreateSharesInstance(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("shared_total", "", nil)
	b := r.Counter("shared_total", "later help", nil)
	if a != b {
		t.Fatal("same name+labels returned distinct counters")
	}
	a.Inc()
	if b.Value() != 1 {
		t.Fatal("instances not shared")
	}
	// Distinct labels are distinct instances.
	c := r.Counter("shared_total", "", Labels{"k": "v"})
	if c == a {
		t.Fatal("distinct labels shared an instance")
	}
}

func TestTypeConflictPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("conflict", "", nil)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on type conflict")
		}
	}()
	r.Gauge("conflict", "", nil)
}

func TestHistogram(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test_seconds", "latency", nil, []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.5, 0.5, 5, 50} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	if got, want := h.Sum(), 56.05; got < want-1e-9 || got > want+1e-9 {
		t.Fatalf("sum = %v, want %v", got, want)
	}
	var b strings.Builder
	r.WritePrometheus(&b)
	out := b.String()
	for _, want := range []string{
		"# TYPE test_seconds histogram",
		`test_seconds_bucket{le="0.1"} 1`,
		`test_seconds_bucket{le="1"} 3`,
		`test_seconds_bucket{le="10"} 4`,
		`test_seconds_bucket{le="+Inf"} 5`,
		"test_seconds_count 5",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestHistogramBoundaryInclusive(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("b_seconds", "", nil, []float64{1, 2})
	h.Observe(1) // le="1" is inclusive in Prometheus semantics
	var b strings.Builder
	r.WritePrometheus(&b)
	if !strings.Contains(b.String(), `b_seconds_bucket{le="1"} 1`) {
		t.Errorf("boundary sample not in inclusive bucket:\n%s", b.String())
	}
}

func TestFuncMetrics(t *testing.T) {
	r := NewRegistry()
	v := 41.0
	r.CounterFunc("func_total", "derived", nil, func() float64 { return v })
	v = 42
	var b strings.Builder
	r.WritePrometheus(&b)
	out := b.String()
	if !strings.Contains(out, "func_total 42") {
		t.Errorf("counter func not read at scrape time:\n%s", out)
	}
}

func TestConcurrentObserve(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("conc_total", "", nil)
	h := r.Histogram("conc_seconds", "", nil, []float64{0.5})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
				h.Observe(0.25)
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Errorf("counter = %d, want 8000", c.Value())
	}
	if h.Count() != 8000 || h.Sum() != 2000 {
		t.Errorf("histogram count=%d sum=%v, want 8000/2000", h.Count(), h.Sum())
	}
}

func TestRequestID(t *testing.T) {
	a, b := NewRequestID(), NewRequestID()
	if len(a) != 16 || len(b) != 16 {
		t.Fatalf("request IDs %q, %q: want 16 hex chars", a, b)
	}
	if a == b {
		t.Fatal("request IDs collided")
	}
	ctx := WithRequestID(context.Background(), a)
	if got := RequestIDFrom(ctx); got != a {
		t.Fatalf("RequestIDFrom = %q, want %q", got, a)
	}
	if got := RequestIDFrom(context.Background()); got != "" {
		t.Fatalf("RequestIDFrom(empty) = %q, want empty", got)
	}
}
