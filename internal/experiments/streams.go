package experiments

import (
	"fmt"
	"sort"

	"strgindex/internal/core"
	"strgindex/internal/dist"
	"strgindex/internal/video"
)

// StreamData is one ingested real-data stream: the database it was
// ingested into plus the per-OG ground truth needed for evaluation.
type StreamData struct {
	Profile video.StreamProfile
	DB      *core.VideoDB
	Stats   core.Stats
	// Seqs and ClassIDs are parallel: the indexed OG sequences and their
	// ground-truth motion class indices into ClassNames.
	Seqs       []dist.Sequence
	ClassIDs   []int
	ClassNames []string
}

// NumClasses returns the number of distinct motion classes observed.
func (s *StreamData) NumClasses() int { return len(s.ClassNames) }

// IngestStreams generates the four Table 1 streams (object counts divided
// by scale.StreamDivisor) and runs each through the full pipeline into its
// own VideoDB.
func IngestStreams(scale Scale) ([]*StreamData, error) {
	var out []*StreamData
	for i, p := range video.StreamProfiles() {
		if scale.StreamDivisor > 1 {
			p.NumObjects = p.NumObjects / scale.StreamDivisor
			if p.NumObjects < 4 {
				p.NumObjects = 4
			}
		}
		stream, err := video.GenerateStream(p, scale.Seed+int64(i))
		if err != nil {
			return nil, fmt.Errorf("experiments: generating %s: %w", p.Name, err)
		}
		cfg := core.DefaultConfig()
		cfg.Index.EMMaxIter = scale.EMMaxIter
		cfg.Index.Seed = scale.Seed
		cfg.Concurrency = scale.Workers
		db := core.Open(cfg)
		if err := db.IngestStream(stream); err != nil {
			return nil, fmt.Errorf("experiments: ingesting %s: %w", p.Name, err)
		}
		sd := &StreamData{Profile: p, DB: db, Stats: db.Stats()}
		classIdx := map[string]int{}
		for _, it := range db.Index().Items() {
			class, ok := stream.Classes[it.Payload.Label]
			if !ok {
				// An OG whose label did not match any generated object
				// (background leak or merge artifact) gets its own class.
				class = "unknown"
			}
			id, ok := classIdx[class]
			if !ok {
				id = len(classIdx)
				classIdx[class] = id
			}
			sd.Seqs = append(sd.Seqs, it.Seq)
			sd.ClassIDs = append(sd.ClassIDs, id)
		}
		sd.ClassNames = make([]string, len(classIdx))
		names := make([]string, 0, len(classIdx))
		for name := range classIdx {
			names = append(names, name)
		}
		sort.Strings(names)
		// Re-map class IDs to the sorted order for determinism.
		remap := map[int]int{}
		for newID, name := range names {
			remap[classIdx[name]] = newID
			sd.ClassNames[newID] = name
		}
		for j, id := range sd.ClassIDs {
			sd.ClassIDs[j] = remap[id]
		}
		out = append(out, sd)
	}
	return out, nil
}

// Table1 regenerates the paper's Table 1: the description of the four
// streams. The duration column reports the paper's wall-clock values (the
// synthetic streams are time-scaled); the OG column reports what the
// pipeline actually extracted.
func Table1(streams []*StreamData) *Table {
	t := &Table{
		Title:  "Table 1: description of (synthetic) real data",
		Header: []string{"Video", "# of OGs (paper)", "# of OGs (extracted)", "Duration (paper)"},
	}
	totalPaper, totalGot := 0, 0
	for _, s := range streams {
		paperCount := paperOGCount(s.Profile.Name)
		t.Rows = append(t.Rows, []string{
			s.Profile.Name,
			fmt.Sprintf("%d", paperCount),
			fmt.Sprintf("%d", s.Stats.OGs),
			s.Profile.ReportedDuration,
		})
		totalPaper += paperCount
		totalGot += s.Stats.OGs
	}
	t.Rows = append(t.Rows, []string{"Total", fmt.Sprintf("%d", totalPaper), fmt.Sprintf("%d", totalGot), "45 hour 7 min"})
	return t
}

func paperOGCount(name string) int {
	switch name {
	case "Lab1":
		return 411
	case "Lab2":
		return 147
	case "Traffic1":
		return 195
	case "Traffic2":
		return 203
	default:
		return 0
	}
}
