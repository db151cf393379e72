package core

import (
	"bytes"
	"context"
	"sync"
	"testing"

	"strgindex/internal/dist"
	"strgindex/internal/query"
	"strgindex/internal/video"
)

// ingestShared commits a stream segment by segment through the SharedDB's
// one write entry.
func ingestShared(s *SharedDB, st *video.Stream) error {
	for _, seg := range st.Segments {
		if _, err := s.IngestSegment(st.Profile.Name, seg); err != nil {
			return err
		}
	}
	return nil
}

func TestSharedDBConcurrentQueriesDuringIngest(t *testing.T) {
	s := OpenShared(DefaultConfig())
	streams := make([]*video.Stream, 3)
	for i := range streams {
		p := video.StreamProfile{
			Name: "S", Kind: video.KindLab,
			NumObjects: 6, SegmentFrames: 16, ObjectsPerSegment: 2,
		}
		st, err := video.GenerateStream(p, int64(40+i))
		if err != nil {
			t.Fatal(err)
		}
		streams[i] = st
	}
	// Seed with one stream so queries have something to chew on.
	if err := ingestShared(s, streams[0]); err != nil {
		t.Fatal(err)
	}
	q := dist.Sequence{{20, 72}, {160, 72}, {300, 72}}

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				for _, qq := range []*query.Query{
					{Similar: &query.SimilarClause{Trajectory: q, K: 3}},
					{Similar: &query.SimilarClause{Trajectory: q, Radius: 500}},
					{Where: query.LengthNode{Min: 2}},
				} {
					if _, err := s.QueryComposedCtx(context.Background(), qq); err != nil {
						t.Error(err)
						return
					}
				}
				s.Stats()
			}
		}()
	}
	for _, st := range streams[1:] {
		wg.Add(1)
		go func(st *video.Stream) {
			defer wg.Done()
			if err := ingestShared(s, st); err != nil {
				t.Error(err)
			}
		}(st)
	}
	wg.Wait()

	want := 0
	for _, st := range streams {
		want += st.NumObjects()
	}
	got := s.Stats().OGs
	// Tracking merges/fragments a little; the count must be close.
	if got < want*7/10 || got > want*13/10 {
		t.Errorf("OGs after concurrent ingest = %d, want ~%d", got, want)
	}

	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadShared(&buf, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Stats().OGs != got {
		t.Errorf("round trip lost OGs: %d vs %d", loaded.Stats().OGs, got)
	}
}
