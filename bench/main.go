// Command bench is the repository's benchmark: it boots a real
// cmd/strg-server, drives one of four workloads at it from generated
// inputs, checks the answers against oracles and prints end-to-end
// metrics; with -trace 1 it also replays the workload in-process under a
// span recorder and prints per-layer metrics. See README.md.
//
// The acceptance driver runs
//
//	bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// and reads the last line of standard output.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
)

// workload is one of the four traffic mixes. setup builds the state and
// boots the server (timed as setup_s); measure drives traffic for the
// run's duration; recover SIGKILLs and restarts the server and checks
// nothing acknowledged was lost; traced replays the head of the op list
// in-process under the span recorder.
type workload interface {
	setup(ctx context.Context) error
	measure(ctx context.Context, res *runResult) error
	recover(ctx context.Context, res *runResult) error
	traced(ctx context.Context, res *runResult) error
	// opListHash fingerprints the generated inputs (valid after setup).
	opListHash() string
	teardown()
}

var workloadNames = []string{"query_similarity", "query_planned", "ingest_segments", "feed_live"}

func newWorkload(rc *runCtx) (workload, error) {
	switch rc.workload {
	case "query_similarity":
		return &queryWorkload{rc: rc, mix: similarityMix, headline: []string{classKNN}}, nil
	case "query_planned":
		return &queryWorkload{rc: rc, mix: plannedMix, headline: []string{classSelectRTree, classSelectScan}}, nil
	case "ingest_segments":
		return &ingestWorkload{rc: rc}, nil
	case "feed_live":
		return &feedWorkload{rc: rc}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", rc.workload, workloadNames)
}

// runCtx is the configuration and scratch space of one run.
type runCtx struct {
	workload  string
	seed      int64
	seconds   float64
	trace     bool
	smoke     bool
	clients   int
	serverBin string
	workDir   string
	outDir    string
	spec      *benchSpec
	bytes     byteCounter

	logSerial int
}

func (rc *runCtx) duration() time.Duration {
	return time.Duration(rc.seconds * float64(time.Second))
}

func (rc *runCtx) newClients() []*http.Client {
	cs := make([]*http.Client, rc.clients)
	for i := range cs {
		cs[i] = newClient()
	}
	return cs
}

// serverLog names the stderr capture of the next server boot.
func (rc *runCtx) serverLog() string {
	rc.logSerial++
	return filepath.Join(rc.outDir, fmt.Sprintf("server-%s-%d.log", rc.workload, rc.logSerial))
}

// byteCounter totals request and response bytes per op class.
type byteCounter struct {
	mu       sync.Mutex
	req, rsp map[string]int64
	n        map[string]int64
}

func (b *byteCounter) add(class string, req, rsp int) {
	b.mu.Lock()
	if b.n == nil {
		b.req, b.rsp, b.n = map[string]int64{}, map[string]int64{}, map[string]int64{}
	}
	b.req[class] += int64(req)
	b.rsp[class] += int64(rsp)
	b.n[class]++
	b.mu.Unlock()
}

// setupRepeats is how many times a run sets up: setup_s is their median,
// which keeps one slow boot from moving the metric.
const setupRepeats = 3

// runOne executes one workload once and returns its result. Every
// failure that is not a wrong answer (those are counted in the result)
// is returned as an error.
func runOne(ctx context.Context, rc *runCtx) (*runResult, error) {
	if err := os.MkdirAll(rc.workDir, 0o755); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(rc.outDir, 0o755); err != nil {
		return nil, err
	}
	w, err := newWorkload(rc)
	if err != nil {
		return nil, err
	}
	res := newResult(rc)
	defer w.teardown()

	repeats := setupRepeats
	if rc.smoke || rc.trace {
		repeats = 1 // setup_s is an end-to-end metric; a traced run does not report it
	}
	var setups []float64
	for i := 0; i < repeats; i++ {
		if i > 0 {
			w.teardown()
		}
		t0 := time.Now()
		if err := w.setup(ctx); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", rc.workload, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	res.e2e("setup_s", median(setups), "s")
	res.OpListHash = w.opListHash()
	res.layer("host.speed_ms", hostSpeedMs(), "ms")

	if err := w.measure(ctx, res); err != nil {
		return nil, fmt.Errorf("%s: measured phase: %w", rc.workload, err)
	}
	if err := w.recover(ctx, res); err != nil {
		return nil, fmt.Errorf("%s: recovery: %w", rc.workload, err)
	}
	if rc.trace {
		if err := w.traced(ctx, res); err != nil {
			return nil, fmt.Errorf("%s: traced run: %w", rc.workload, err)
		}
	}
	return res, nil
}

func main() { os.Exit(realMain()) }

func realMain() int {
	var (
		workloadFlag = flag.String("workload", "", "workload to run (default: all four): "+fmt.Sprint(workloadNames))
		seed         = flag.Int64("seed", 1, "input seed: the same seed gives byte-identical op lists")
		seconds      = flag.Float64("seconds", 0, "measured-phase length in seconds (default: run_seconds of BENCHMARK.json)")
		trace        = flag.Int("trace", 0, "1 adds the in-process traced replay and prints per-layer metrics instead of end-to-end ones")
		smoke        = flag.Bool("smoke", false, "tiny sizes (500-OG corpus, tens of ops): finishes in seconds, numbers mean nothing")
		repeat       = flag.Int("repeat", 0, "run each selected workload N times on seeds seed..seed+N-1 and report median and quartiles per metric")
		compare      = flag.Bool("compare", false, "compare two -repeat result files (args: a.json b.json) under BENCHMARK.json's bounds")
		clients      = flag.Int("clients", min(2, runtime.NumCPU()), "closed-loop query client connections (refused above NumCPU)")
		serverBin    = flag.String("server", ".bench_build/strg-server", "strg-server binary (run.sh builds it)")
		workDir      = flag.String("work", ".bench_build/work", "scratch directory for databases and data directories")
		outDir       = flag.String("out", "bench/out", "directory for result files, traces and server logs")
		specPath     = flag.String("spec", "BENCHMARK.json", "benchmark contract: metric names, units and bounds")
	)
	flag.Parse()

	spec, err := loadSpec(*specPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare takes two result files")
			return 2
		}
		return compareFiles(spec, flag.Arg(0), flag.Arg(1))
	}
	if *clients > runtime.NumCPU() {
		fmt.Fprintf(os.Stderr, "bench: %d clients refused: this host has %d CPUs, and clients beyond that measure the scheduler, not the server (scaling point skipped)\n",
			*clients, runtime.NumCPU())
		return 2
	}
	if *clients < 1 {
		fmt.Fprintln(os.Stderr, "bench: need at least one client")
		return 2
	}
	if *seconds <= 0 {
		*seconds = float64(spec.RunSeconds)
		if *smoke {
			*seconds = 1.5
		}
	}
	if _, err := os.Stat(*serverBin); err != nil {
		fmt.Fprintf(os.Stderr, "bench: server binary: %v (run through bench/run.sh, which builds it)\n", err)
		return 2
	}

	// Children die with the harness: on SIGINT/SIGTERM every server is
	// killed and every scratch directory removed before exiting.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	work := filepath.Join(*workDir, fmt.Sprintf("run-%d", os.Getpid()))
	cleanup := func() {
		killAllServers()
		os.RemoveAll(work)
	}
	defer cleanup()
	finished := make(chan struct{})
	defer close(finished)
	go func() {
		select {
		case <-ctx.Done():
			cleanup()
			os.Exit(130)
		case <-finished:
		}
	}()

	selected := workloadNames
	if *workloadFlag != "" {
		selected = []string{*workloadFlag}
	}
	mk := func(name string, seed int64) *runCtx {
		return &runCtx{
			workload: name, seed: seed, seconds: *seconds, trace: *trace != 0, smoke: *smoke,
			clients: *clients, serverBin: *serverBin, workDir: work, outDir: *outDir, spec: spec,
		}
	}

	if *repeat > 0 {
		return repeatRuns(ctx, spec, selected, *seed, *repeat, *outDir, mk)
	}

	status := 0
	var last *runResult
	for _, name := range selected {
		res, err := runOne(ctx, mk(name, *seed))
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		res.print(os.Stderr)
		if err := writeJSONFile(filepath.Join(*outDir, "result-"+name+".json"), res); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		if !res.Correct {
			status = 1
		}
		last = res
	}
	if status != 0 {
		// A wrong answer is a failed benchmark, not a slow one: no result
		// line, non-zero exit.
		return status
	}
	if len(selected) == 1 {
		line, err := last.driverLine()
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		fmt.Println(line)
	}
	return 0
}

// sortedKeys returns a map's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

func writeJSONFile(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
