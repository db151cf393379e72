package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"strconv"

	"strgindex/internal/dist"
	"strgindex/internal/strg"
	"strgindex/internal/synth"
	"strgindex/internal/video"
)

// Everything the server receives is generated here from the run's seed:
// the same seed gives byte-identical op lists (opListHash proves it), a
// different seed different ones.

// Sub-seeds keep the generators independent: changing how many numbers
// one of them draws never shifts another's stream.
const (
	seedCorpus  = 0x5eed0001
	seedQueries = 0x5eed0002
	seedMix     = 0x5eed0003
	seedStreams = 0x5eed0004
	seedSubs    = 0x5eed0005
)

func subSeed(seed int64, salt int64) int64 { return seed*1_000_003 + salt }

// genCorpus generates n synthetic Object Graphs: the 48 patterns of
// internal/synth at 10% noise, shuffled so ingest order carries no
// pattern structure.
func genCorpus(seed int64, n int) ([]*strg.OG, error) {
	ds, err := synth.Generate(synth.Config{
		PerPattern: (n + 47) / 48,
		NoisePct:   0.10,
		Seed:       subSeed(seed, seedCorpus),
	})
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(subSeed(seed, seedCorpus) + 1))
	perm := rng.Perm(ds.Len())[:n]
	ogs := make([]*strg.OG, n)
	for i, j := range perm {
		ogs[i] = synth.AsOG(i, ds.Items[j], ds.Patterns[ds.Labels[j]].Name)
	}
	return ogs, nil
}

// genTrajectories generates n query trajectories from the same 48
// patterns under an independent seed, shuffled.
func genTrajectories(seed int64, n int) ([]dist.Sequence, error) {
	ds, err := synth.Generate(synth.Config{
		PerPattern: (n + 47) / 48,
		NoisePct:   0.10,
		Seed:       subSeed(seed, seedQueries),
	})
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(subSeed(seed, seedQueries) + 1))
	perm := rng.Perm(ds.Len())[:n]
	out := make([]dist.Sequence, n)
	for i, j := range perm {
		out[i] = ds.Items[j]
	}
	return out, nil
}

// Operation classes. Each workload reports latency per class; the
// planner strategy a class must hit is part of the class definition and
// checked on every answer.
const (
	classKNN         = "knn"
	classExact       = "exact"
	classRange       = "range"
	classSelectRTree = "select_rtree"
	classSelectScan  = "select_scan"
	classComposed    = "composed"
	classApprox      = "approx"
)

// wantStrategy is the plan each class is built to hit.
var wantStrategy = map[string]string{
	classKNN:         "index",
	classExact:       "index",
	classRange:       "index",
	classSelectRTree: "rtree",
	classSelectScan:  "scan",
	classComposed:    "rtree",
	classApprox:      "approx",
}

// queryOp is one POST /v1/query request.
type queryOp struct {
	class string
	body  []byte
	// k bounds a k-NN answer (0 otherwise); radius bounds a range answer;
	// limit caps a predicate-only answer.
	k      int
	radius float64
	limit  int
	traj   dist.Sequence
}

// rangeRadius is the radius of every range query: the median distance
// from a query trajectory to its 20th nearest neighbour in the 3000-OG
// corpus (brute force over 128 queries gave 448.1, 447.5 and 435.5 on
// seeds 1 to 3). It is committed as a constant so that it is the same on
// every commit.
const rangeRadius = 445.0

const queryK = 10

func trajJSON(t dist.Sequence) string {
	b := make([]byte, 0, 16*len(t)+2)
	b = append(b, '[')
	for i, v := range t {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, '[')
		b = strconv.AppendFloat(b, v[0], 'f', 3, 64)
		b = append(b, ',')
		b = strconv.AppendFloat(b, v[1], 'f', 3, 64)
		b = append(b, ']')
	}
	return string(append(b, ']'))
}

// roundTraj rounds a trajectory to the three decimals trajJSON prints,
// so the oracle computes distances on exactly what the server parsed.
func roundTraj(t dist.Sequence) dist.Sequence {
	out := make(dist.Sequence, len(t))
	for i, v := range t {
		x, _ := strconv.ParseFloat(strconv.FormatFloat(v[0], 'f', 3, 64), 64)
		y, _ := strconv.ParseFloat(strconv.FormatFloat(v[1], 'f', 3, 64), 64)
		out[i] = dist.Vec{x, y}
	}
	return out
}

// hotSetSize is the number of trajectories that a fifth of similarity
// traffic repeats, so the server's distance cache sees both hits and
// misses.
const hotSetSize = 16

// trajSource hands out query trajectories: a fifth from the hot set,
// the rest each used once.
type trajSource struct {
	rng    *rand.Rand
	hot    []dist.Sequence
	unique []dist.Sequence
	next   int
}

func newTrajSource(seed int64, n int) (*trajSource, error) {
	ts, err := genTrajectories(seed, n+hotSetSize)
	if err != nil {
		return nil, err
	}
	for i := range ts {
		ts[i] = roundTraj(ts[i])
	}
	return &trajSource{
		rng:    rand.New(rand.NewSource(subSeed(seed, seedMix))),
		hot:    ts[:hotSetSize],
		unique: ts[hotSetSize:],
	}, nil
}

func (s *trajSource) draw() dist.Sequence {
	if s.rng.Intn(5) == 0 {
		return s.hot[s.rng.Intn(len(s.hot))]
	}
	t := s.unique[s.next%len(s.unique)]
	s.next++
	return t
}

// similarityMix is the class cycle of query_similarity: 60% k-NN, 20%
// exact, 20% range, interleaved so any window of ten ops has the mix.
var similarityMix = []string{
	classKNN, classExact, classKNN, classRange, classKNN,
	classKNN, classExact, classKNN, classRange, classKNN,
}

// plannedMix is the class cycle of query_planned: 40% rtree select, 10%
// scan select, 10% composed, 40% approx.
var plannedMix = []string{
	classSelectRTree, classApprox, classSelectRTree, classApprox, classSelectScan,
	classSelectRTree, classApprox, classSelectRTree, classApprox, classComposed,
}

// genQueryOps builds n ops cycling through mix.
func genQueryOps(seed int64, n int, mix []string) ([]queryOp, error) {
	src, err := newTrajSource(seed, n)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(subSeed(seed, seedMix) + 1))
	ops := make([]queryOp, n)
	for i := range ops {
		ops[i] = genQueryOp(mix[i%len(mix)], src, rng)
	}
	return ops, nil
}

var headings = []string{"east", "south", "west", "north"}

func genQueryOp(class string, src *trajSource, rng *rand.Rand) queryOp {
	op := queryOp{class: class}
	switch class {
	case classKNN:
		op.traj, op.k = src.draw(), queryK
		op.body = []byte(fmt.Sprintf(`{"similar":{"trajectory":%s,"k":%d}}`, trajJSON(op.traj), op.k))
	case classExact:
		op.traj, op.k = src.draw(), queryK
		op.body = []byte(fmt.Sprintf(`{"similar":{"trajectory":%s,"k":%d,"exact":true}}`, trajJSON(op.traj), op.k))
	case classRange:
		op.traj, op.radius = src.draw(), rangeRadius
		op.body = []byte(fmt.Sprintf(`{"similar":{"trajectory":%s,"radius":%g}}`, trajJSON(op.traj), op.radius))
	case classApprox:
		op.traj, op.k = src.draw(), queryK
		op.body = []byte(fmt.Sprintf(`{"similar":{"trajectory":%s,"k":%d,"mode":"approx"}}`, trajJSON(op.traj), op.k))
	case classSelectRTree:
		// A 20×20 rectangle anywhere in the field: selective, so the
		// planner probes the trajectory R-tree.
		x := float64(rng.Intn(int(synth.FieldW) - 20))
		y := float64(rng.Intn(int(synth.FieldH) - 20))
		op.limit = 100
		op.body = []byte(fmt.Sprintf(`{"where":{"passes_through":{"x0":%g,"y0":%g,"x1":%g,"y1":%g}},"limit":100}`,
			x, y, x+20, y+20))
	case classSelectScan:
		// Heading and speed have no spatial extent: not indexable, so the
		// planner scans.
		op.limit = 100
		op.body = []byte(fmt.Sprintf(`{"where":{"and":[{"heading":{"dir":%q}},{"speed":{"min":%g}}]},"limit":100}`,
			headings[rng.Intn(len(headings))], 5+10*rng.Float64()))
	case classComposed:
		// A 60-wide full-height strip plus a ranking clause: R-tree
		// access, predicate filter, then the executor's rank stage.
		x := float64(rng.Intn(int(synth.FieldW) - 60))
		op.traj, op.k = src.draw(), queryK
		op.body = []byte(fmt.Sprintf(`{"where":{"passes_through":{"x0":%g,"y0":0,"x1":%g,"y1":%g}},"similar":{"trajectory":%s,"k":%d}}`,
			x, x+60, synth.FieldH, trajJSON(op.traj), op.k))
	default:
		panic("unknown op class " + class)
	}
	return op
}

// segmentOp is one POST /v1/segments request.
type segmentOp struct {
	stream string
	name   string
	body   []byte
}

// Every ingested segment is 24 frames with two moving objects, the
// profiles' own shape.
const (
	ingestSegmentFrames  = 24
	ingestSegmentObjects = 2
)

// One scene of a live feed lasts feedSceneFrames frames: an object
// crosses the field within it and the feed falls quiescent at its end, so
// the server commits one epoch per scene. A scene holds one object: with
// two, about one scene in fifty has them interact in a way that costs the
// tracker ten times the usual (a 16-frame scene then takes 0.7 s), and
// whether a ten-second window holds such a scene decided the feed's
// figures more than anything the server did. ingest_segments keeps two
// objects per segment, so that cost stays visible there.
const (
	feedSceneFrames  = 16
	feedSceneObjects = 1
)

// ingestProfiles are interleaved segment by segment, so consecutive
// ingests alternate backgrounds (and index roots).
var ingestProfiles = []string{"Lab1", "Lab2", "Traffic1", "Traffic2"}

func findProfile(name string) video.StreamProfile {
	for _, p := range video.StreamProfiles() {
		if p.Name == name {
			return p
		}
	}
	panic("unknown profile " + name)
}

// genStreams generates one stream per profile with at least perProfile
// segments of segFrames frames and objects moving objects each.
func genStreams(seed int64, profiles []string, perProfile, segFrames, objects int) ([]*video.Stream, error) {
	out := make([]*video.Stream, len(profiles))
	for i, name := range profiles {
		p := findProfile(name)
		p.SegmentFrames, p.ObjectsPerSegment = segFrames, objects
		p.NumObjects = perProfile * objects
		s, err := video.GenerateStream(p, subSeed(seed, seedStreams)+int64(i))
		if err != nil {
			return nil, err
		}
		out[i] = s
	}
	return out, nil
}

// genSegmentOps builds n ingest requests, round-robin over the four
// profiles; each profile ingests under its own stream name.
func genSegmentOps(seed int64, n int) ([]segmentOp, error) {
	per := (n + len(ingestProfiles) - 1) / len(ingestProfiles)
	streams, err := genStreams(seed, ingestProfiles, per, ingestSegmentFrames, ingestSegmentObjects)
	if err != nil {
		return nil, err
	}
	ops := make([]segmentOp, n)
	for i := range ops {
		s := streams[i%len(streams)]
		seg := s.Segments[i/len(streams)]
		body, err := json.Marshal(map[string]any{"stream": s.Profile.Name, "segment": seg})
		if err != nil {
			return nil, err
		}
		ops[i] = segmentOp{stream: s.Profile.Name, name: seg.Name, body: body}
	}
	return ops, nil
}

// feedBatch is one POST /v1/feeds/{id}/frames request: NDJSON, a meta
// line on the batch that creates the feed, then frames.
type feedBatch struct {
	feed   string
	body   []byte
	frames int
	// last is the index of the batch's final frame; the acknowledgement's
	// next_frame must be last+1.
	last int
}

// feedProfiles maps each live feed to the profile its frames come from.
var feedProfiles = []struct{ feed, profile string }{
	{"cam0", "Traffic1"},
	{"cam1", "Lab1"},
}

// genFeedBatches builds n batches of framesPerBatch frames, alternating
// between the feeds; frame indices are feed-global and contiguous.
func genFeedBatches(seed int64, n, framesPerBatch int) ([]feedBatch, error) {
	names := make([]string, len(feedProfiles))
	for i, fp := range feedProfiles {
		names[i] = fp.profile
	}
	perFeed := (n + len(names) - 1) / len(names)
	segs := (perFeed*framesPerBatch + feedSceneFrames - 1) / feedSceneFrames
	streams, err := genStreams(seed, names, segs+1, feedSceneFrames, feedSceneObjects)
	if err != nil {
		return nil, err
	}
	// Flatten each stream to one frame sequence with feed-global indices.
	flat := make([][]video.Frame, len(streams))
	for i, s := range streams {
		for _, seg := range s.Segments {
			for _, f := range seg.Frames {
				f.Index = len(flat[i])
				flat[i] = append(flat[i], f)
			}
		}
	}
	out := make([]feedBatch, n)
	for b := range out {
		fi := b % len(flat)
		lo := (b / len(flat)) * framesPerBatch
		hi := lo + framesPerBatch
		if hi > len(flat[fi]) {
			return nil, fmt.Errorf("feed %s: stream too short for batch %d", feedProfiles[fi].feed, b)
		}
		var body []byte
		if lo == 0 {
			first := streams[fi].Segments[0]
			meta, err := json.Marshal(map[string]any{"meta": map[string]float64{
				"width": first.Width, "height": first.Height, "fps": first.FPS,
			}})
			if err != nil {
				return nil, err
			}
			body = append(append(body, meta...), '\n')
		}
		for i := lo; i < hi; i++ {
			line, err := json.Marshal(&flat[fi][i])
			if err != nil {
				return nil, err
			}
			body = append(append(body, line...), '\n')
		}
		out[b] = feedBatch{feed: feedProfiles[fi].feed, body: body, frames: hi - lo, last: hi - 1}
	}
	return out, nil
}

// genSubscriptions builds the standing-query population of feed_live:
// nine tenths 30×30 passes_through rectangles, one tenth k-NN k=5.
func genSubscriptions(seed int64, n int) ([][]byte, error) {
	rng := rand.New(rand.NewSource(subSeed(seed, seedSubs)))
	ts, err := genTrajectories(subSeed(seed, seedSubs), n/10+1)
	if err != nil {
		return nil, err
	}
	out := make([][]byte, n)
	for i := range out {
		if i%10 == 9 {
			out[i] = []byte(fmt.Sprintf(`{"similar":{"trajectory":%s,"k":5}}`, trajJSON(ts[i/10])))
			continue
		}
		x := float64(rng.Intn(int(synth.FieldW) - 30))
		y := float64(rng.Intn(int(synth.FieldH) - 30))
		out[i] = []byte(fmt.Sprintf(`{"where":{"passes_through":{"x0":%g,"y0":%g,"x1":%g,"y1":%g}}}`,
			x, y, x+30, y+30))
	}
	return out, nil
}

// catchAllSubscription matches every committed OG (every OG has at
// least one sample).
const catchAllSubscription = `{"where":{"longer_than":0}}`

// opListHash fingerprints an op list: the seed-determinism tests and the
// result file both carry it.
func opListHash(bodies ...[]byte) string {
	h := sha256.New()
	for _, b := range bodies {
		var n [8]byte
		for i, v := 0, uint64(len(b)); i < 8; i, v = i+1, v>>8 {
			n[i] = byte(v)
		}
		h.Write(n[:])
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}
