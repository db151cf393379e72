package rtree

import (
	"math"
	"math/rand"
	"testing"
)

// trajBoxes decomposes a random-walk trajectory into the per-step
// (x, y, t) segment boxes the core trajectory index inserts: each box
// spans two consecutive samples in space and time, so their union covers
// the walk's whole frame span.
func trajBoxes(rng *rand.Rand) []Box {
	n := 2 + rng.Intn(10)
	x, y := rng.Float64()*1000, rng.Float64()*1000
	f := float64(rng.Intn(900))
	boxes := make([]Box, 0, n-1)
	for i := 1; i < n; i++ {
		nx := x + rng.Float64()*40 - 20
		ny := y + rng.Float64()*40 - 20
		nf := f + 1 + float64(rng.Intn(3))
		boxes = append(boxes, NewBox([3]float64{x, y, f}, [3]float64{nx, ny, nf}))
		x, y, f = nx, ny, nf
	}
	return boxes
}

// TestTrajectorySearchMatchesBruteForce is the planner's soundness
// property stated directly against the R-tree: insert trajectories as
// per-step segment boxes, then for every probe shape the query planner
// emits — spatial (finite xy, infinite t), temporal (infinite xy, finite
// t), and full spatio-temporal windows — Search must return exactly the
// trajectories brute-force box filtering finds. Structural invariants are
// re-checked as the tree grows, not just at the end, so a split that
// transiently corrupts a routing box cannot hide behind later repairs.
func TestTrajectorySearchMatchesBruteForce(t *testing.T) {
	inf := math.Inf(1)
	for _, fanout := range []int{4, 9, 16} {
		rng := rand.New(rand.NewSource(int64(1000 + fanout)))
		tr, err := New[int](fanout)
		if err != nil {
			t.Fatal(err)
		}
		// owner[i] is the trajectory id of inserted box i.
		var all []Box
		var owner []int
		for id := 0; id < 120; id++ {
			for _, b := range trajBoxes(rng) {
				tr.Insert(b, id)
				all = append(all, b)
				owner = append(owner, id)
			}
			if id%17 == 0 {
				if err := tr.CheckInvariants(); err != nil {
					t.Fatalf("fanout %d, after trajectory %d: %v", fanout, id, err)
				}
			}
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("fanout %d, final: %v", fanout, err)
		}
		if tr.Len() != len(all) {
			t.Fatalf("fanout %d: Len = %d, want %d", fanout, tr.Len(), len(all))
		}

		probes := []Box{
			// Spatial probes: a rect crossed at any time.
			NewBox([3]float64{100, 100, -inf}, [3]float64{300, 300, inf}),
			NewBox([3]float64{499, 0, -inf}, [3]float64{501, 1000, inf}),
			// Temporal probes: anywhere, inside a frame window.
			NewBox([3]float64{-inf, -inf, 100}, [3]float64{inf, inf, 200}),
			NewBox([3]float64{-inf, -inf, 903}, [3]float64{inf, inf, 903}),
			// Spatio-temporal windows.
			NewBox([3]float64{0, 0, 0}, [3]float64{500, 500, 450}),
			NewBox([3]float64{700, 700, 400}, [3]float64{720, 720, 410}),
			// Degenerate: a single point, and a region outside the data.
			NewBox([3]float64{500, 500, 500}, [3]float64{500, 500, 500}),
			NewBox([3]float64{2000, 2000, 2000}, [3]float64{3000, 3000, 3000}),
		}
		for pi, q := range probes {
			got, _ := tr.Search(q)
			// Search returns one payload per intersecting box; distinct
			// trajectory ids are what the planner consumes, so compare sets.
			gotSet := map[int]bool{}
			for _, id := range got {
				gotSet[id] = true
			}
			want := map[int]bool{}
			hits := 0
			for i, b := range all {
				if b.Intersects(q) {
					want[owner[i]] = true
					hits++
				}
			}
			if len(got) != hits {
				t.Errorf("fanout %d probe %d: %d boxes returned, brute force finds %d",
					fanout, pi, len(got), hits)
			}
			if len(gotSet) != len(want) {
				t.Errorf("fanout %d probe %d: %d trajectories, want %d",
					fanout, pi, len(gotSet), len(want))
				continue
			}
			for id := range want {
				if !gotSet[id] {
					t.Errorf("fanout %d probe %d: trajectory %d missing", fanout, pi, id)
				}
			}
		}
	}
}

// TestDeleteChurnMatchesBruteForce interleaves inserts and deletes — the
// standing-query engine's register/unregister churn — and holds the tree
// to a plain slice after every step that matters: Delete reports exactly
// whether the entry existed, Search returns exactly the live boxes, and
// the structural invariants (cover, fill, uniform leaf depth, Len) hold
// while nodes dissolve and the root shrinks, down to an empty tree and
// back. Boxes include the half-open shapes subscriptions store, clamped
// by Finite, so volume arithmetic on them is exercised too.
func TestDeleteChurnMatchesBruteForce(t *testing.T) {
	inf := math.Inf(1)
	for _, fanout := range []int{4, 7, 16} {
		rng := rand.New(rand.NewSource(int64(2000 + fanout)))
		tr, err := New[int](fanout)
		if err != nil {
			t.Fatal(err)
		}
		live := map[int]Box{}
		var ids []int // live's keys, so the victim choice is seeded too
		next := 0
		randBox := func() Box {
			x, y, f := rng.Float64()*600, rng.Float64()*400, float64(rng.Intn(500))
			switch rng.Intn(4) {
			case 0: // a rectangle over all time
				return NewBox([3]float64{x, y, -inf}, [3]float64{x + 30, y + 30, inf}).Finite()
			case 1: // a frame window over all space
				return NewBox([3]float64{-inf, -inf, f}, [3]float64{inf, inf, f + 40}).Finite()
			case 2: // a degenerate point, shared by many entries
				return NewBox([3]float64{100, 100, 100}, [3]float64{100, 100, 100})
			}
			return NewBox([3]float64{x, y, f}, [3]float64{x + 30, y + 30, f + 40})
		}
		check := func(step int) {
			t.Helper()
			if err := tr.CheckInvariants(); err != nil {
				t.Fatalf("fanout %d step %d: %v", fanout, step, err)
			}
			if tr.Len() != len(live) {
				t.Fatalf("fanout %d step %d: Len = %d, want %d", fanout, step, tr.Len(), len(live))
			}
			q := NewBox([3]float64{rng.Float64() * 600, rng.Float64() * 400, -inf},
				[3]float64{rng.Float64() * 600, rng.Float64() * 400, inf}).Finite()
			got, _ := tr.Search(q)
			want := 0
			for _, b := range live {
				if b.Intersects(q) {
					want++
				}
			}
			seen := map[int]bool{}
			for _, id := range got {
				if b, ok := live[id]; !ok || !b.Intersects(q) || seen[id] {
					t.Fatalf("fanout %d step %d: Search returned %d (live %v, dup %v)", fanout, step, id, ok, seen[id])
				}
				seen[id] = true
			}
			if len(got) != want {
				t.Fatalf("fanout %d step %d: Search found %d, brute force %d", fanout, step, len(got), want)
			}
		}
		del := func(id int) bool {
			return tr.Delete(live[id], func(p int) bool { return p == id })
		}
		for step := 0; step < 1500; step++ {
			// Grow for the first third, churn, then drain to empty.
			grow := step < 500 || (step < 1000 && rng.Intn(2) == 0)
			if grow || len(live) == 0 {
				b := randBox()
				tr.Insert(b, next)
				live[next] = b
				ids = append(ids, next)
				next++
			} else {
				i := rng.Intn(len(ids))
				id := ids[i]
				ids[i] = ids[len(ids)-1]
				ids = ids[:len(ids)-1]
				if !del(id) {
					t.Fatalf("fanout %d step %d: Delete missed live entry %d", fanout, step, id)
				}
				b := live[id]
				delete(live, id)
				if tr.Delete(b, func(p int) bool { return p == id }) {
					t.Fatalf("fanout %d step %d: Delete removed entry %d twice", fanout, step, id)
				}
			}
			if step%23 == 0 {
				check(step)
			}
		}
		for _, id := range ids {
			if !del(id) {
				t.Fatalf("fanout %d: drain missed %d", fanout, id)
			}
			delete(live, id)
		}
		check(-1)
		if tr.height() != 1 {
			t.Fatalf("fanout %d: drained tree has height %d", fanout, tr.height())
		}
		tr.Insert(randBox(), next)
		if tr.Len() != 1 {
			t.Fatalf("fanout %d: insert after drain: Len = %d", fanout, tr.Len())
		}
	}
}

// TestFinitePreservesIntersection pins the argument Finite's comment
// makes: clamping both sides never separates boxes that intersected.
func TestFinitePreservesIntersection(t *testing.T) {
	inf := math.Inf(1)
	vals := []float64{-inf, -1e200, -5, 0, 5, 1e200, inf}
	rng := rand.New(rand.NewSource(7))
	pick := func() float64 { return vals[rng.Intn(len(vals))] }
	for i := 0; i < 5000; i++ {
		a := NewBox([3]float64{pick(), pick(), pick()}, [3]float64{pick(), pick(), pick()})
		b := NewBox([3]float64{pick(), pick(), pick()}, [3]float64{pick(), pick(), pick()})
		if a.Intersects(b) && !a.Finite().Intersects(b.Finite()) {
			t.Fatalf("%+v and %+v intersect, their Finite forms do not", a, b)
		}
		if v := a.Finite().Union(b.Finite()).Volume(); math.IsInf(v, 0) || math.IsNaN(v) {
			t.Fatalf("Finite volume of %+v ∪ %+v is %v", a, b, v)
		}
	}
}

// TestCheckInvariantsCatchesDamage breaks a healthy tree one way at a time
// and expects CheckInvariants to object to each — the checks Delete's tests
// lean on have to be able to fail.
func TestCheckInvariantsCatchesDamage(t *testing.T) {
	build := func() *Tree[int] {
		tr, _ := New[int](4)
		for i := 0; i < 40; i++ {
			f := float64(i)
			tr.Insert(NewBox([3]float64{f, f, f}, [3]float64{f + 1, f + 1, f + 1}), i)
		}
		if tr.height() < 3 {
			t.Fatalf("height %d: the damage below needs two routing levels", tr.height())
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		return tr
	}
	firstLeaf := func(tr *Tree[int]) *node[int] {
		n := tr.root
		for !n.leaf {
			n = n.entries[0].child
		}
		return n
	}
	damage := map[string]func(*Tree[int]){
		"Len drifts":          func(tr *Tree[int]) { tr.size++ },
		"over-full node":      func(tr *Tree[int]) { l := firstLeaf(tr); l.entries = append(l.entries, l.entries...) },
		"under-full node":     func(tr *Tree[int]) { firstLeaf(tr).entries = nil },
		"routing box shrinks": func(tr *Tree[int]) { tr.root.entries[0].box = Box{} },
		"leaf too high":       func(tr *Tree[int]) { tr.root.entries[1].child = firstLeaf(tr) },
		"routing node at the leaf level": func(tr *Tree[int]) {
			n := tr.root.entries[0].child
			n.entries[0].child.leaf = false
			n.entries[0].child.entries = n.entries[1:2]
		},
	}
	for name, breakIt := range damage {
		tr := build()
		breakIt(tr)
		if err := tr.CheckInvariants(); err == nil {
			t.Errorf("%s: CheckInvariants found nothing wrong", name)
		}
	}
}
