package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// benchSpec is BENCHMARK.json: the single list of metric names, units
// and regression bounds. The harness reads it rather than repeating it,
// so a metric cannot be printed under a name the contract does not have.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading the benchmark contract: %w", err)
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if s.RunSeconds <= 0 || len(s.EndToEnd) == 0 || len(s.PerLayer) == 0 {
		return nil, fmt.Errorf("%s: missing run_seconds, end_to_end or per_layer", path)
	}
	return &s, nil
}

func (s *benchSpec) find(list []metricSpec, name string) *metricSpec {
	for i := range list {
		if list[i].Name == name {
			return &list[i]
		}
	}
	return nil
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// environment is recorded in every result file: numbers from different
// hosts or flush policies must never be compared by accident.
type environment struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	DataDirFS  string `json:"data_dir_fs"`
	// FlushPolicy is fixed: the server runs with its default flags, which
	// fsync the WAL on every ingest and the feed journal on every batch.
	FlushPolicy string `json:"flush_policy"`
	ServerFlags string `json:"server_flags"`
	Clients     int    `json:"clients"`
}

func captureEnv(rc *runCtx) environment {
	commit := "unknown"
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return environment{
		NumCPU:      runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		GoVersion:   runtime.Version(),
		Commit:      commit,
		DataDirFS:   fsType(rc.workDir),
		FlushPolicy: "fsync per ingest (WAL) and per feed batch (journal); server defaults, no tuning flags",
		ServerFlags: "defaults; -db … -approx on query workloads, -data-dir on ingest_segments, -data-dir -feeds on feed_live",
		Clients:     rc.clients,
	}
}

// fsType names the filesystem holding dir (statfs magic; the common ones
// by name, the rest in hex).
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	}
	return fmt.Sprintf("0x%x", uint32(st.Type))
}

// runResult is one run of one workload.
type runResult struct {
	Workload   string            `json:"workload"`
	Seed       int64             `json:"seed"`
	Seconds    float64           `json:"seconds"`
	Trace      bool              `json:"trace"`
	Smoke      bool              `json:"smoke,omitempty"`
	Env        environment       `json:"env"`
	Correct    bool              `json:"correct"`
	Attempted  int               `json:"attempted"`
	Failed     int               `json:"failed"`
	Failure    string            `json:"first_failure,omitempty"`
	OpListHash string            `json:"op_list_hash"`
	EndToEnd   map[string]metric `json:"end_to_end"`
	PerLayer   map[string]metric `json:"per_layer"`
	Notes      []string          `json:"notes,omitempty"`

	spec         *benchSpec
	measuredOps  int
	measuredWall time.Duration
	classLines   []string // per-class latency summary for the human table
}

func newResult(rc *runCtx) *runResult {
	return &runResult{
		Workload: rc.workload, Seed: rc.seed, Seconds: rc.seconds, Trace: rc.trace, Smoke: rc.smoke,
		Env: captureEnv(rc), Correct: true, spec: rc.spec,
		EndToEnd: map[string]metric{}, PerLayer: map[string]metric{},
	}
}

// e2e records an end-to-end metric; the name must be in the contract.
func (r *runResult) e2e(name string, v float64, unit string) {
	m := r.spec.find(r.spec.EndToEnd, name)
	if m == nil || m.Unit != unit {
		panic(fmt.Sprintf("end-to-end metric %s [%s] is not in BENCHMARK.json", name, unit))
	}
	r.EndToEnd[name] = metric{v, unit}
}

// layer records a per-layer metric; the name must be in the contract.
func (r *runResult) layer(name string, v float64, unit string) {
	m := r.spec.find(r.spec.PerLayer, name)
	if m == nil || m.Unit != unit {
		panic(fmt.Sprintf("per-layer metric %s [%s] is not in BENCHMARK.json", name, unit))
	}
	r.PerLayer[name] = metric{v, unit}
}

func (r *runResult) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// fail records a wrong answer found outside the per-op accounting (a
// durability or stream-integrity check). It returns nil: a wrong answer
// fails the result, not the harness.
func (r *runResult) fail(format string, args ...any) error {
	r.Attempted++
	r.Failed++
	r.Correct = false
	if r.Failure == "" {
		r.Failure = fmt.Sprintf(format, args...)
	}
	return nil
}

// absorb folds a sample set's accounting into the result.
func (r *runResult) absorb(s *samples) {
	r.Attempted += s.attempted
	r.Failed += s.failed
	if s.failed > 0 {
		r.Correct = false
		if r.Failure == "" {
			r.Failure = s.firstFailure
		}
	}
	for _, class := range sortedKeys(s.byClass) {
		xs := sorted(s.byClass[class])
		r.classLines = append(r.classLines, fmt.Sprintf("%-14s n=%-6d p50=%9.3f p90=%9.3f p99=%9.3f max=%9.3f ms",
			class, len(xs), median(xs), quantile(xs, 0.90), quantile(xs, 0.99), xs[len(xs)-1]))
	}
}

// latencies fills the two end-to-end latency figures: median and p75 of
// the workload's headline op classes. Neither may be empty: a run too
// short for the percentile rule (the smoke profile) reports the maximum
// and says so.
func (r *runResult) latencies(s *samples, headline []string) {
	h := s.classes(headline...)
	r.e2e("main_p50_ms", median(h), "ms")
	p75, err := percentile(h, 0.75)
	if err != nil {
		r.note("main_p75_ms: %v; reporting the maximum instead", err)
		if len(h) > 0 {
			p75 = sorted(h)[len(h)-1]
		}
	}
	r.e2e("main_p75_ms", p75, "ms")
}

// print writes the human-readable table: every metric by name and unit.
func (r *runResult) print(w io.Writer) {
	fmt.Fprintf(w, "\n== %s  seed=%d  seconds=%g  trace=%v  commit=%s  cpus=%d  fs=%s\n",
		r.Workload, r.Seed, r.Seconds, r.Trace, r.Env.Commit, r.Env.NumCPU, r.Env.DataDirFS)
	fmt.Fprintf(w, "   attempted=%d failed=%d correct=%v ops=%d wall=%.2fs ops-hash=%s\n",
		r.Attempted, r.Failed, r.Correct, r.measuredOps, r.measuredWall.Seconds(), r.OpListHash)
	if r.Failure != "" {
		fmt.Fprintf(w, "   FIRST FAILURE: %s\n", r.Failure)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "   note: %s\n", n)
	}
	for _, l := range r.classLines {
		fmt.Fprintf(w, "   class %s\n", l)
	}
	fmt.Fprintln(w, "   end-to-end:")
	for _, m := range r.spec.EndToEnd {
		if v, ok := r.EndToEnd[m.Name]; ok {
			fmt.Fprintf(w, "     %-28s %14.4f %s\n", m.Name, v.Value, v.Unit)
		}
	}
	if len(r.PerLayer) > 0 {
		fmt.Fprintln(w, "   per-layer:")
		for _, m := range r.spec.PerLayer {
			if v, ok := r.PerLayer[m.Name]; ok {
				fmt.Fprintf(w, "     %-36s %14.4f %s\n", m.Name, v.Value, v.Unit)
			}
		}
	}
}

// driverLine is the last line of standard output the acceptance driver
// reads: every end-to-end metric untraced, every per-layer metric traced.
// A layer the workload bypasses reports 0 — that is its measurement.
func (r *runResult) driverLine() (string, error) {
	metrics := map[string]metric{}
	if r.Trace {
		for _, m := range r.spec.PerLayer {
			v, ok := r.PerLayer[m.Name]
			if !ok {
				v = metric{0, m.Unit}
			}
			metrics[m.Name] = v
		}
	} else {
		for _, m := range r.spec.EndToEnd {
			v, ok := r.EndToEnd[m.Name]
			if !ok {
				return "", fmt.Errorf("%s did not measure end-to-end metric %s", r.Workload, m.Name)
			}
			metrics[m.Name] = v
		}
	}
	attempted := r.Attempted
	if attempted < 1 {
		attempted = 1
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.Correct, attempted, r.Failed, metrics})
	return string(line), err
}
