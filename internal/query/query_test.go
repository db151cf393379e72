package query

import (
	"math"
	"testing"

	"strgindex/internal/geom"
	"strgindex/internal/strg"
)

// og builds an OG from centroid waypoints, one frame apart, area 300.
func og(points ...geom.Point) *strg.OG {
	o := &strg.OG{}
	for i, p := range points {
		o.Frames = append(o.Frames, i)
		o.Centroids = append(o.Centroids, p)
		o.Sizes = append(o.Sizes, 300)
	}
	return o
}

func eastWalk() *strg.OG {
	return og(geom.Pt(0, 100), geom.Pt(20, 100), geom.Pt(40, 100), geom.Pt(60, 100), geom.Pt(80, 100))
}

func northWalk() *strg.OG {
	return og(geom.Pt(50, 200), geom.Pt(50, 180), geom.Pt(50, 160), geom.Pt(50, 140))
}

func uturnWalk() *strg.OG {
	return og(
		geom.Pt(0, 100), geom.Pt(30, 100), geom.Pt(60, 100),
		geom.Pt(80, 110),
		geom.Pt(60, 120), geom.Pt(30, 120), geom.Pt(0, 120),
	)
}

func TestCombinators(t *testing.T) {
	yes := Predicate(func(*strg.OG) bool { return true })
	no := Predicate(func(*strg.OG) bool { return false })
	o := eastWalk()
	tests := []struct {
		name string
		p    Predicate
		want bool
	}{
		{"and true", And(yes, yes), true},
		{"and false", And(yes, no), false},
		{"and empty", And(), true},
		{"or true", Or(no, yes), true},
		{"or false", Or(no, no), false},
		{"or empty", Or(), false},
		{"not", Not(no), true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.p(o); got != tt.want {
				t.Errorf("got %v, want %v", got, tt.want)
			}
		})
	}
}

func TestSpatialPredicates(t *testing.T) {
	o := eastWalk()
	mid := geom.Rect{Min: geom.Pt(35, 90), Max: geom.Pt(45, 110)}
	if !PassesThrough(mid)(o) {
		t.Error("east walk does not pass through its own midpoint region")
	}
	elsewhere := geom.Rect{Min: geom.Pt(0, 0), Max: geom.Pt(10, 10)}
	if PassesThrough(elsewhere)(o) {
		t.Error("east walk passes through a far corner")
	}
	if !StartsIn(geom.Rect{Min: geom.Pt(-5, 95), Max: geom.Pt(5, 105)})(o) {
		t.Error("StartsIn failed at the start point")
	}
	if !EndsIn(geom.Rect{Min: geom.Pt(75, 95), Max: geom.Pt(85, 105)})(o) {
		t.Error("EndsIn failed at the end point")
	}
	if StartsIn(elsewhere)(o) || EndsIn(elsewhere)(o) {
		t.Error("start/end matched a far corner")
	}
}

func TestTemporalPredicates(t *testing.T) {
	o := eastWalk() // frames 0..4
	if !During(2, 10)(o) {
		t.Error("During(2,10) rejected overlapping span")
	}
	if During(5, 10)(o) {
		t.Error("During(5,10) accepted disjoint span")
	}
	if !LongerThan(4)(o) || LongerThan(5)(o) {
		t.Error("LongerThan boundary wrong")
	}
	empty := &strg.OG{}
	if During(0, 10)(empty) {
		t.Error("empty OG matched During")
	}
}

func TestKinematicPredicates(t *testing.T) {
	east := eastWalk()   // speed 20 east
	north := northWalk() // speed 20 north
	if got := MeanSpeed(east); math.Abs(got-20) > 1e-9 {
		t.Errorf("MeanSpeed = %v, want 20", got)
	}
	if !Eastbound(0.2)(east) {
		t.Error("east walk not eastbound")
	}
	if Eastbound(0.2)(north) {
		t.Error("north walk eastbound")
	}
	if !Northbound(0.2)(north) {
		t.Error("north walk not northbound")
	}
	if !SpeedBetween(15, 25)(east) || SpeedBetween(25, 30)(east) {
		t.Error("SpeedBetween wrong")
	}
}

func TestTurnsBy(t *testing.T) {
	if !TurnsBy(2.5)(uturnWalk()) {
		t.Error("U-turn not detected")
	}
	if TurnsBy(2.5)(eastWalk()) {
		t.Error("straight walk detected as U-turn")
	}
	short := og(geom.Pt(0, 0), geom.Pt(1, 1))
	if TurnsBy(0.1)(short) {
		t.Error("too-short OG matched TurnsBy")
	}
}

func TestAreaBetween(t *testing.T) {
	o := eastWalk() // area 300
	if !AreaBetween(200, 400)(o) {
		t.Error("area 300 rejected by [200,400]")
	}
	if AreaBetween(400, 500)(o) {
		t.Error("area 300 accepted by [400,500]")
	}
	if AreaBetween(0, 1000)(&strg.OG{}) {
		t.Error("empty OG matched AreaBetween")
	}
}

func TestFilterComposition(t *testing.T) {
	ogs := []*strg.OG{eastWalk(), northWalk(), uturnWalk()}
	matching := func(p Predicate) (out []*strg.OG) {
		for _, og := range ogs {
			if p(og) {
				out = append(out, og)
			}
		}
		return out
	}
	got := matching(And(
		During(0, 100),
		Or(Eastbound(0.3), Northbound(0.3)),
	))
	if len(got) != 2 {
		t.Fatalf("filtered %d, want 2", len(got))
	}
	// U-turns only.
	got = matching(TurnsBy(2.5))
	if len(got) != 1 || got[0] != ogs[2] {
		t.Errorf("U-turn filter returned %d", len(got))
	}
	// Nothing matches an impossible conjunction.
	got = matching(And(Eastbound(0.1), Northbound(0.1)))
	if len(got) != 0 {
		t.Errorf("impossible filter matched %d", len(got))
	}
}
