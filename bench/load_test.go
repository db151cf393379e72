package main

import (
	"testing"
	"time"
)

// The open-loop scheduler must charge a stall to every op it delays:
// latency is taken from the due time, not from when the op was sent.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	const interval = 10 * time.Millisecond
	const stall = 35 * time.Millisecond
	start := time.Now()
	var lat, late []time.Duration
	n := openLoop(8, interval, start, nil, func(i int, due time.Time) {
		if want := start.Add(time.Duration(i) * interval); !due.Equal(want) {
			t.Errorf("op %d due %v, want %v", i, due.Sub(start), want.Sub(start))
		}
		late = append(late, time.Since(due))
		if i == 1 {
			time.Sleep(stall) // op 1 is slow; ops 2..4 were due during it
		}
		lat = append(lat, time.Since(due))
	})
	if n != 8 {
		t.Fatalf("sent %d ops, want 8", n)
	}
	if lat[0] > interval {
		t.Errorf("op 0 took %v with nothing in its way", lat[0])
	}
	// Op 2 was due 10 ms into a 35 ms stall: it waited about 25 ms before
	// it could even be sent, and that wait is part of its latency.
	if late[2] < stall-interval-2*time.Millisecond {
		t.Errorf("op 2 was sent %v after its due time; the stall should have made it ~%v late", late[2], stall-interval)
	}
	if lat[2] < late[2] {
		t.Errorf("op 2 latency %v does not include its %v wait", lat[2], late[2])
	}
	// The sender catches up without shifting the schedule: by op 7 it is
	// on time again.
	if late[7] > interval {
		t.Errorf("op 7 still %v late: the schedule shifted instead of catching up", late[7])
	}
}

func TestOpenLoopStops(t *testing.T) {
	stop := make(chan struct{})
	n := openLoop(1000, time.Millisecond, time.Now(), stop, func(i int, _ time.Time) {
		if i == 4 {
			close(stop)
		}
	})
	if n != 5 {
		t.Fatalf("ran %d ops after stop at op 4, want 5", n)
	}
}

func TestClosedLoopCountsAndBounds(t *testing.T) {
	seen := make([]int, 100)
	done, _ := closedLoop(2, time.Time{}, 10, 50, func(_, i int) { seen[i]++ })
	if done != 50 {
		t.Fatalf("completed %d ops, want 50", done)
	}
	for i, n := range seen {
		want := 0
		if i >= 10 && i < 60 {
			want = 1
		}
		if n != want {
			t.Fatalf("op %d ran %d times, want %d", i, n, want)
		}
	}
}
