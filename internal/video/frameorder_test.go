package video

import (
	"errors"
	"strings"
	"testing"

	"strgindex/internal/geom"
)

func orderSegment(indices ...int) *Segment {
	s := &Segment{Name: "order", Width: 100, Height: 100, FPS: 1}
	for _, idx := range indices {
		s.Frames = append(s.Frames, Frame{
			Index:   idx,
			Regions: []Region{{ID: 0, Centroid: geom.Pt(10, 10), Size: 5}},
		})
	}
	return s
}

// TestValidateFrameOrder rejects every non-monotone frame numbering with the
// typed error: reversed, duplicated, gapped, and offset streams all corrupt
// the chain ordering of frame-by-frame tracking if replayed, so none may
// pass.
func TestValidateFrameOrder(t *testing.T) {
	tests := []struct {
		name    string
		indices []int
		ok      bool
	}{
		{"consecutive", []int{0, 1, 2}, true},
		{"single", []int{0}, true},
		{"reversed", []int{2, 1, 0}, false},
		{"duplicate", []int{0, 0, 1}, false},
		{"gap", []int{0, 1, 3}, false},
		{"offset start", []int{1, 2, 3}, false},
		{"negative", []int{-1, 0, 1}, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := orderSegment(tt.indices...).Validate()
			if tt.ok {
				if err != nil {
					t.Fatalf("Validate() = %v, want nil", err)
				}
				return
			}
			if err == nil {
				t.Fatal("non-monotone frame numbering accepted")
			}
			if !errors.Is(err, ErrFrameOrder) {
				t.Errorf("error %v does not wrap ErrFrameOrder", err)
			}
			var foe *FrameOrderError
			if !errors.As(err, &foe) {
				t.Fatalf("error %v is not a *FrameOrderError", err)
			}
			if foe.Segment != "order" {
				t.Errorf("FrameOrderError.Segment = %q, want %q", foe.Segment, "order")
			}
		})
	}
}

// TestReadJSONFrameOrderTyped proves the typed error survives the ReadJSON
// path — the regression the issue names: deserialized segments with shuffled
// frame numbers must be rejected, not silently accepted.
func TestReadJSONFrameOrderTyped(t *testing.T) {
	body := `{"Name":"x","Width":10,"Height":10,"FPS":1,"Frames":[
		{"Index":0,"Regions":[{"ID":0,"Size":5,"Centroid":{"X":1,"Y":1}}]},
		{"Index":2,"Regions":[{"ID":0,"Size":5,"Centroid":{"X":1,"Y":1}}]},
		{"Index":1,"Regions":[{"ID":0,"Size":5,"Centroid":{"X":1,"Y":1}}]}]}`
	_, err := ReadJSON(strings.NewReader(body))
	if err == nil {
		t.Fatal("shuffled frame indices accepted")
	}
	if !errors.Is(err, ErrFrameOrder) {
		t.Errorf("ReadJSON error %v does not wrap ErrFrameOrder", err)
	}
	var foe *FrameOrderError
	if !errors.As(err, &foe) {
		t.Fatalf("ReadJSON error %v is not a *FrameOrderError", err)
	}
	if foe.Index != 2 || foe.Want != 1 {
		t.Errorf("FrameOrderError = {Index:%d Want:%d}, want {Index:2 Want:1}", foe.Index, foe.Want)
	}
}

func TestFrameValidate(t *testing.T) {
	good := Frame{Regions: []Region{{ID: 0, Centroid: geom.Pt(5, 5), Size: 2}}}
	if err := good.Validate(10, 10); err != nil {
		t.Fatalf("valid frame rejected: %v", err)
	}
	tests := []struct {
		name string
		f    Frame
	}{
		{"dup id", Frame{Regions: []Region{
			{ID: 1, Centroid: geom.Pt(1, 1), Size: 2}, {ID: 1, Centroid: geom.Pt(2, 2), Size: 2}}}},
		{"zero size", Frame{Regions: []Region{{ID: 0, Centroid: geom.Pt(1, 1), Size: 0}}}},
		{"out of bounds", Frame{Regions: []Region{{ID: 0, Centroid: geom.Pt(99, 1), Size: 2}}}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := tt.f.Validate(10, 10); err == nil {
				t.Error("invalid frame accepted")
			}
		})
	}
}
