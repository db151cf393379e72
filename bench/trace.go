package main

import (
	"path/filepath"
	"time"
)

// span is one timed call into a layer. Spans of one operation share its
// op id; Parent names the span that caused this one. The traced run
// replays each operation once per layer depth from identical freshly
// loaded state (handler pass, layer pass, index pass), so a parent and
// its children are matched by op id across passes, not by nesting in
// time.
type span struct {
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Class  string `json:"class,omitempty"`
	Op     int    `json:"op"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// recorder keeps spans in memory; they are written out once, when the
// run ends.
type recorder struct {
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// do times fn as one span.
func (r *recorder) do(name, parent, class string, op int, fn func()) {
	start := time.Since(r.t0)
	fn()
	end := time.Since(r.t0)
	r.spans = append(r.spans, span{name, parent, class, op, start.Nanoseconds(), end.Nanoseconds()})
}

// spanOverheadNs is the recorder's own cost per span: the median of
// empty spans. It is printed as trace.span_ns so a reader can judge how
// much of a microsecond-scale layer is the stopwatch.
func spanOverheadNs() float64 {
	probe := &recorder{t0: time.Now(), spans: make([]span, 0, 4096)}
	for i := 0; i < 4096; i++ {
		probe.do("probe", "", "", i, func() {})
	}
	xs := make([]float64, len(probe.spans))
	for i, s := range probe.spans {
		xs[i] = float64(s.dur())
	}
	return median(xs)
}

// durations returns the durations in µs of every span with this name,
// restricted to the given op classes when any are named.
func (r *recorder) durations(name string, classes ...string) []float64 {
	var out []float64
	for _, s := range r.spans {
		if s.Name != name || !inClasses(s.Class, classes) {
			continue
		}
		out = append(out, float64(s.dur())/1e3)
	}
	return out
}

// selfTimes returns, per span named name, its duration minus the
// durations of the spans of the same op that name it as parent, in µs:
// the layer's own time.
func (r *recorder) selfTimes(name string, classes ...string) []float64 {
	children := map[int]int64{}
	for _, s := range r.spans {
		if s.Parent == name {
			children[s.Op] += s.dur()
		}
	}
	var out []float64
	for _, s := range r.spans {
		if s.Name != name || !inClasses(s.Class, classes) {
			continue
		}
		out = append(out, float64(s.dur()-children[s.Op])/1e3)
	}
	return out
}

func inClasses(c string, classes []string) bool {
	if len(classes) == 0 {
		return true
	}
	for _, x := range classes {
		if x == c {
			return true
		}
	}
	return false
}

// write stores the spans as bench/out/trace-<workload>.json.
func (r *recorder) write(outDir, workload string) error {
	return writeJSONFile(filepath.Join(outDir, "trace-"+workload+".json"), struct {
		Workload string `json:"workload"`
		Spans    []span `json:"spans"`
	}{workload, r.spans})
}
