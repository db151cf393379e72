package index

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"strgindex/internal/dist"
)

// gatedMetric wraps EGEDMZero with a gate: once armed, every evaluation
// registers itself and blocks until released, so a test can trap the
// worker pool mid-search and observe exactly which evaluations run.
type gatedMetric struct {
	armed    atomic.Bool
	started  atomic.Int64
	finished atomic.Int64
	release  chan struct{}
}

func (g *gatedMetric) metric(a, b dist.Sequence) float64 {
	if g.armed.Load() {
		g.started.Add(1)
		<-g.release
		g.finished.Add(1)
	}
	return dist.EGEDMZero(a, b)
}

// cancelTestTree builds a 4-cluster tree of well-separated trajectories.
func cancelTestTree(t *testing.T, g *gatedMetric) *Tree[int] {
	t.Helper()
	tree := New[int](Config{
		Metric:      g.metric,
		NumClusters: 4,
		Concurrency: 2,
		Seed:        1,
	})
	var items []Item[int]
	anchors := []float64{0, 1000, 2000, 3000}
	id := 0
	for _, a := range anchors {
		for j := 0; j < 4; j++ {
			seq := dist.Sequence{
				{a + float64(j), a},
				{a + float64(j) + 1, a + 1},
				{a + float64(j) + 2, a + 2},
			}
			items = append(items, Item[int]{Seq: seq, Payload: id})
			id++
		}
	}
	if err := tree.AddSegment(nil, items); err != nil {
		t.Fatal(err)
	}
	if tree.NumClusters() < 3 {
		t.Fatalf("clusters = %d, want >= 3 so cancellation can strand unclaimed work", tree.NumClusters())
	}
	return tree
}

// TestKNNExactCtxCancelDrainsPool aborts an exact k-NN mid-flight: with
// both workers trapped inside metric evaluations, cancel must (1) surface
// context.Canceled, (2) let the trapped evaluations drain rather than
// leak, and (3) claim no further evaluations afterwards.
func TestKNNExactCtxCancelDrainsPool(t *testing.T) {
	g := &gatedMetric{release: make(chan struct{})}
	tree := cancelTestTree(t, g)
	g.armed.Store(true)

	ctx, cancel := context.WithCancel(context.Background())
	type outcome struct {
		res []Result[int]
		err error
	}
	done := make(chan outcome, 1)
	query := dist.Sequence{{1500, 1500}, {1501, 1501}}
	go func() {
		res, _, err := tree.KNNExactStatsCtx(ctx, nil, query, 3)
		done <- outcome{res, err}
	}()

	// Wait until both workers are trapped mid-evaluation.
	deadline := time.Now().Add(5 * time.Second)
	for g.started.Load() < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("workers never started: %d", g.started.Load())
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	close(g.release) // let the in-flight evaluations finish

	out := <-done
	if !errors.Is(out.err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", out.err)
	}
	if out.res != nil {
		t.Errorf("cancelled search returned partial results: %v", out.res)
	}
	// The pool drained: every started evaluation completed, and with the
	// gate wide open nothing new is claimed.
	if s, f := g.started.Load(), g.finished.Load(); s != f {
		t.Errorf("started %d != finished %d: worker leaked mid-evaluation", s, f)
	}
	n := g.started.Load()
	if n >= int64(tree.NumClusters()) {
		t.Errorf("started %d of %d centroid evals: cancellation did not abort mid-flight", n, tree.NumClusters())
	}
	time.Sleep(30 * time.Millisecond)
	if got := g.started.Load(); got != n {
		t.Errorf("evaluations kept starting after drain: %d -> %d", n, got)
	}
}

// TestKNNCtxCancel covers the approximate search's descent path.
func TestKNNCtxCancel(t *testing.T) {
	g := &gatedMetric{release: make(chan struct{})}
	tree := New[int](Config{
		ClusterDistance: g.metric,
		NumClusters:     4,
		Concurrency:     2,
		Seed:            1,
	})
	var items []Item[int]
	for i := 0; i < 16; i++ {
		a := float64((i / 4) * 1000)
		items = append(items, Item[int]{Seq: dist.Sequence{{a, a}, {a + 1, a + 1}}, Payload: i})
	}
	if err := tree.AddSegment(nil, items); err != nil {
		t.Fatal(err)
	}
	g.armed.Store(true)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, _, err := tree.KNNStatsCtx(ctx, nil, dist.Sequence{{500, 500}}, 2)
		done <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for g.started.Load() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("descent never started")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	close(g.release)
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if s, f := g.started.Load(), g.finished.Load(); s != f {
		t.Errorf("started %d != finished %d", s, f)
	}
}

// TestRangeCtxCancel covers the range scan.
func TestRangeCtxCancel(t *testing.T) {
	g := &gatedMetric{release: make(chan struct{})}
	tree := cancelTestTree(t, g)
	g.armed.Store(true)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, _, err := tree.RangeStatsCtx(ctx, nil, dist.Sequence{{1500, 1500}}, 1e9)
		done <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for g.started.Load() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("scan never started")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	close(g.release)
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestCtxVariantsMatchLegacy pins the contract between the two search
// surfaces: with a live context the serving API (the StatsCtx methods)
// returns byte-identical results to the paper API (KNN, KNNExact, Range).
func TestCtxVariantsMatchLegacy(t *testing.T) {
	g := &gatedMetric{release: make(chan struct{})} // never armed: fast
	tree := cancelTestTree(t, g)
	query := dist.Sequence{{1500, 1500}, {1501, 1501}}
	ctx := context.Background()

	exact, _, err := tree.KNNExactStatsCtx(ctx, nil, query, 3)
	if err != nil {
		t.Fatal(err)
	}
	if want := tree.KNNExact(nil, query, 3); !equalResults(exact, want) {
		t.Errorf("KNNExactStatsCtx = %v, KNNExact = %v", exact, want)
	}
	approx, _, err := tree.KNNStatsCtx(ctx, nil, query, 3)
	if err != nil {
		t.Fatal(err)
	}
	if want := tree.KNN(nil, query, 3); !equalResults(approx, want) {
		t.Errorf("KNNStatsCtx = %v, KNN = %v", approx, want)
	}
	rng, _, err := tree.RangeStatsCtx(ctx, nil, query, 5000)
	if err != nil {
		t.Fatal(err)
	}
	if want := tree.Range(nil, query, 5000); !equalResults(rng, want) {
		t.Errorf("RangeStatsCtx = %v, Range = %v", rng, want)
	}
}

func equalResults(a, b []Result[int]) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Payload != b[i].Payload || a[i].Distance != b[i].Distance {
			return false
		}
	}
	return true
}
