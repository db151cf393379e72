package main

import (
	"sync"
	"sync/atomic"
	"time"
)

// sample is one completed operation as the client saw it.
type sample struct {
	class string
	ms    float64
	// failed: non-2xx, transport error or an answer an oracle rejected.
	failed bool
}

// samples collects per-class latencies and failure counts.
type samples struct {
	byClass   map[string][]float64
	attempted int
	failed    int
	// firstFailure keeps one reason for the report.
	firstFailure string
}

func newSamples() *samples { return &samples{byClass: map[string][]float64{}} }

func (s *samples) add(class string, ms float64, failure string) {
	s.attempted++
	if failure != "" {
		s.failed++
		if s.firstFailure == "" {
			s.firstFailure = class + ": " + failure
		}
		return
	}
	s.byClass[class] = append(s.byClass[class], ms)
}

func (s *samples) merge(o *samples) {
	for c, xs := range o.byClass {
		s.byClass[c] = append(s.byClass[c], xs...)
	}
	s.attempted += o.attempted
	s.failed += o.failed
	if s.firstFailure == "" {
		s.firstFailure = o.firstFailure
	}
}

// classes concatenates the latencies of several classes.
func (s *samples) classes(names ...string) []float64 {
	var out []float64
	for _, n := range names {
		out = append(out, s.byClass[n]...)
	}
	return out
}

// closedLoop runs `clients` goroutines; each takes the next op index from
// a shared cursor, runs it to completion and only then takes another, so
// a slow server receives less load. It stops at the deadline or after
// maxOps ops, whichever comes first, and returns the ops started and the
// wall time from start to the last completion.
func closedLoop(clients int, deadline time.Time, first, maxOps int, fn func(client, op int)) (int, time.Duration) {
	var cursor atomic.Int64
	cursor.Store(int64(first))
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				if !deadline.IsZero() && !time.Now().Before(deadline) {
					return
				}
				i := int(cursor.Add(1)) - 1
				if i >= first+maxOps {
					cursor.Add(-1)
					return
				}
				fn(c, i)
			}
		}(c)
	}
	wg.Wait()
	return int(cursor.Load()) - first, time.Since(start)
}

// openLoop sends n operations on a fixed schedule from one sender: op i
// is due at start + i·interval whether or not earlier ops have finished
// being slow. A sender that falls behind sends at once and keeps the
// original due times, so fn — which must time its op from `due`, not from
// when it was called — charges a stall to every op it delayed. It stops
// early once stop is closed.
func openLoop(n int, interval time.Duration, start time.Time, stop <-chan struct{}, fn func(i int, due time.Time)) int {
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(i) * interval)
		if d := time.Until(due); d > 0 {
			t := time.NewTimer(d)
			select {
			case <-t.C:
			case <-stop:
				t.Stop()
				return i
			}
		} else {
			select {
			case <-stop:
				return i
			default:
			}
		}
		fn(i, due)
	}
	return n
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }
