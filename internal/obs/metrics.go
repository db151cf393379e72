// Package obs is the observability layer of the system: a dependency-free
// metrics registry (atomic counters, gauges and fixed-bucket latency
// histograms with a Prometheus text exposition) plus the request-identity
// helpers used by structured logging.
//
// Every serving layer registers its metrics against the package-level
// Default registry at init time — the same pattern the runtime uses for
// runtime/metrics — so instrumentation never threads a registry handle
// through deep call stacks (strg.Build, generic index trees). The HTTP
// server exposes the registry at GET /metrics.
//
// Counters and gauges are single atomics; histograms are one atomic per
// bucket plus a CAS-loop float sum. Observing a metric from the parallel
// worker pools is safe and exact.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Labels is an optional label set attached to one metric instance. Label
// values must have bounded cardinality (route patterns, status codes —
// never raw URLs or IDs).
type Labels map[string]string

// LatencyBuckets is the default histogram layout for request and pipeline
// timings, in seconds: roughly exponential from 0.5ms to 10s.
var LatencyBuckets = []float64{0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}

// RatioBuckets is the histogram layout for quantities in [0, 1], such as
// per-search pruning ratios.
var RatioBuckets = []float64{0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1}

// Counter is a monotonically increasing metric.
type Counter struct {
	n atomic.Int64
}

// Inc adds 1.
func (c *Counter) Inc() { c.n.Add(1) }

// Add adds delta (must be >= 0 for the exposition to stay meaningful).
func (c *Counter) Add(delta int64) { c.n.Add(delta) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.n.Load() }

// Gauge is a metric that can go up and down (in-flight requests, pool
// occupancy).
type Gauge struct {
	n atomic.Int64
}

// Inc adds 1. Dec subtracts 1. Set replaces the value.
func (g *Gauge) Inc()         { g.n.Add(1) }
func (g *Gauge) Dec()         { g.n.Add(-1) }
func (g *Gauge) Set(v int64)  { g.n.Store(v) }
func (g *Gauge) Add(d int64)  { g.n.Add(d) }
func (g *Gauge) Value() int64 { return g.n.Load() }

// Histogram is a fixed-bucket distribution. Buckets are cumulative upper
// bounds in the Prometheus style; an implicit +Inf bucket catches the rest.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1; last is +Inf
	sum    atomic.Uint64  // float64 bits, CAS-updated
	total  atomic.Int64
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i].Add(1)
	h.total.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the total number of samples observed.
func (h *Histogram) Count() int64 { return h.total.Load() }

// Sum returns the sum of all observed samples.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// metric is one registered instance (a concrete handle plus its identity).
type metric struct {
	labels string // canonical serialized label set, "" for none
	c      *Counter
	g      *Gauge
	gf     func() float64
	h      *Histogram
}

// family groups the instances sharing a metric name.
type family struct {
	name    string
	help    string
	typ     string // "counter", "gauge", "histogram"
	order   []string
	byLabel map[string]*metric
}

// Registry holds metric families and renders them in the Prometheus text
// exposition format. All methods are safe for concurrent use; metric
// handles are get-or-create, so package init order never matters.
type Registry struct {
	mu       sync.Mutex
	order    []string
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// Default is the process-global registry every package registers against.
var Default = NewRegistry()

func canonLabels(labels Labels) string {
	if len(labels) == 0 {
		return ""
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", k, labels[k])
	}
	return b.String()
}

// lookup returns the family for name, creating it with the given type and
// help on first use, and panicking on a type conflict (a programming
// error: two packages claimed one name for different metric kinds).
func (r *Registry) lookup(name, help, typ string) *family {
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, typ: typ, byLabel: make(map[string]*metric)}
		r.families[name] = f
		r.order = append(r.order, name)
		return f
	}
	if f.typ != typ {
		panic(fmt.Sprintf("obs: metric %s registered as %s and %s", name, f.typ, typ))
	}
	if f.help == "" {
		f.help = help
	}
	return f
}

func (f *family) instance(labels string) *metric {
	m, ok := f.byLabel[labels]
	if !ok {
		m = &metric{labels: labels}
		f.byLabel[labels] = m
		f.order = append(f.order, labels)
	}
	return m
}

// Counter returns the counter with the given name and labels, creating it
// on first use.
func (r *Registry) Counter(name, help string, labels Labels) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	m := r.lookup(name, help, "counter").instance(canonLabels(labels))
	if m.c == nil {
		m.c = &Counter{}
	}
	return m.c
}

// Gauge returns the gauge with the given name and labels, creating it on
// first use.
func (r *Registry) Gauge(name, help string, labels Labels) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	m := r.lookup(name, help, "gauge").instance(canonLabels(labels))
	if m.g == nil {
		m.g = &Gauge{}
	}
	return m.g
}

// CounterFunc registers a counter whose value is read from fn at scrape
// time — the bridge for pre-existing atomic counters owned by other
// packages (dist.TotalEvals). Re-registering replaces the function.
func (r *Registry) CounterFunc(name, help string, labels Labels, fn func() float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.lookup(name, help, "counter").instance(canonLabels(labels)).gf = fn
}

// Histogram returns the histogram with the given name, labels and bucket
// upper bounds, creating it on first use. Bounds must be sorted ascending;
// nil means LatencyBuckets. The bounds of the first registration win.
func (r *Registry) Histogram(name, help string, labels Labels, bounds []float64) *Histogram {
	if bounds == nil {
		bounds = LatencyBuckets
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	m := r.lookup(name, help, "histogram").instance(canonLabels(labels))
	if m.h == nil {
		m.h = &Histogram{bounds: bounds, counts: make([]atomic.Int64, len(bounds)+1)}
	}
	return m.h
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// joinLabels merges an instance's canonical label string with one extra
// label (the histogram "le").
func joinLabels(base, extra string) string {
	switch {
	case base == "" && extra == "":
		return ""
	case base == "":
		return "{" + extra + "}"
	case extra == "":
		return "{" + base + "}"
	default:
		return "{" + base + "," + extra + "}"
	}
}

// WritePrometheus renders every registered metric in the Prometheus text
// exposition format (version 0.0.4), families in registration order and
// instances in creation order — a stable scrape.
func (r *Registry) WritePrometheus(w io.Writer) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, name := range r.order {
		f := r.families[name]
		if f.help != "" {
			fmt.Fprintf(w, "# HELP %s %s\n", f.name, f.help)
		}
		fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.typ)
		for _, ls := range f.order {
			m := f.byLabel[ls]
			switch {
			case m.h != nil:
				cum := int64(0)
				for i, b := range m.h.bounds {
					cum += m.h.counts[i].Load()
					fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, joinLabels(ls, `le="`+formatFloat(b)+`"`), cum)
				}
				cum += m.h.counts[len(m.h.bounds)].Load()
				fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, joinLabels(ls, `le="+Inf"`), cum)
				fmt.Fprintf(w, "%s_sum%s %s\n", f.name, joinLabels(ls, ""), formatFloat(m.h.Sum()))
				fmt.Fprintf(w, "%s_count%s %d\n", f.name, joinLabels(ls, ""), cum)
			case m.gf != nil:
				fmt.Fprintf(w, "%s%s %s\n", f.name, joinLabels(ls, ""), formatFloat(m.gf()))
			case m.c != nil:
				fmt.Fprintf(w, "%s%s %d\n", f.name, joinLabels(ls, ""), m.c.Value())
			case m.g != nil:
				fmt.Fprintf(w, "%s%s %d\n", f.name, joinLabels(ls, ""), m.g.Value())
			}
		}
	}
}
