package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"time"
)

// Op classes of feed_live.
const (
	classFeedBatch  = "feed_batch"  // acknowledged without an epoch commit
	classFeedCommit = "feed_commit" // the batch that closed and committed an epoch
	classFeedEvent  = "feed_event"  // due time of a committing batch → first SSE event of its epoch
)

// Open-loop schedule of feed_live: batches of feedFrames frames, one
// every feedInterval, alternating between two feeds — 32 frames a second
// per camera, four epoch commits a second in all (a scene lasts 16
// frames). Small batches put seven batches that commit nothing between
// two that commit an epoch, so the headline class's median and p75 both
// sit inside one mode, and ten seconds hold 280 of them and 40 commits.
// The rate keeps one of the two cores about a third busy: the shared
// host's speed moves by a third for minutes at a time, and at three
// quarters busy that turned into queueing and moved the medians by a
// third as well.
const (
	feedFrames   = 2
	feedInterval = 31250 * time.Microsecond
)

// feedWorkload is feed_live: two cameras push frame batches on a fixed
// schedule (open loop: cameras do not wait) into a server holding ten
// thousand standing queries, while a second connection follows the
// catch-all subscription's event stream.
type feedWorkload struct {
	rc      *runCtx
	batches []feedBatch
	subs    [][]byte
	dataDir string
	srv     *serverProc

	catchAll string // subscription id
	events   chan sseEvent
	stopSSE  context.CancelFunc
	sseErr   chan error

	next    int            // next batch to send
	acked   map[string]int // feed → last acknowledged next_frame
	commits int            // epochs acknowledged as committed, warm-up included
	// seen is the catch-all stream's accounting: events received and the
	// last id.
	seenEvents int
	lastID     uint64
	gapEvents  int
	idBreaks   int
}

func (w *feedWorkload) sizes() (batches, subs int) {
	if w.rc.smoke {
		return 60, 100
	}
	perSec := float64(time.Second / feedInterval)
	return 64 + int(perSec*w.rc.seconds*1.1), 10000
}

func (w *feedWorkload) setup(ctx context.Context) error {
	nBatch, nSubs := w.sizes()
	var err error
	if w.batches, err = genFeedBatches(w.rc.seed, nBatch, feedFrames); err != nil {
		return err
	}
	if w.subs, err = genSubscriptions(w.rc.seed, nSubs); err != nil {
		return err
	}
	w.dataDir = filepath.Join(w.rc.workDir, "feed-data")
	if w.srv, err = w.boot(ctx); err != nil {
		return err
	}
	w.next, w.commits, w.acked = 0, 0, map[string]int{}
	w.seenEvents, w.lastID, w.gapEvents, w.idBreaks = 0, 0, 0, 0

	// Standing queries are registered before any frame arrives, so every
	// committed OG is evaluated against all of them.
	c := newClient()
	for i, body := range w.subs {
		if _, err := mustOK(c, http.MethodPost, w.srv.base+"/v1/subscriptions", body, http.StatusCreated); err != nil {
			return fmt.Errorf("registering subscription %d: %w", i, err)
		}
	}
	data, err := mustOK(c, http.MethodPost, w.srv.base+"/v1/subscriptions", []byte(catchAllSubscription), http.StatusCreated)
	if err != nil {
		return err
	}
	var info struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(data, &info); err != nil || info.ID == "" {
		return fmt.Errorf("catch-all subscription: no id in %s", truncate(data, 120))
	}
	w.catchAll = info.ID

	// Connection 2: the event stream. The channel is deep enough to hold a
	// run's events, so the reader never waits on the harness.
	sseCtx, cancel := context.WithCancel(ctx)
	w.stopSSE = cancel
	w.events = make(chan sseEvent, 1<<16)
	w.sseErr = make(chan error, 1)
	go func() {
		w.sseErr <- readSSE(sseCtx, w.srv.base+"/v1/subscriptions/"+w.catchAll+"/events", w.events)
	}()

	// Warm-up: the first epoch of each feed is unmeasured (feed creation,
	// first journal, first commit through an empty index).
	warmed := map[string]bool{}
	for len(warmed) < len(feedProfiles) {
		if w.next >= len(w.batches) {
			return fmt.Errorf("warm-up consumed every batch without %d first commits", len(feedProfiles))
		}
		b := &w.batches[w.next]
		_, flushed, failure := w.send(c, b)
		if failure != "" {
			return fmt.Errorf("warm-up batch %d: %s", w.next, failure)
		}
		if flushed {
			warmed[b.feed] = true
		}
		w.next++
	}
	return nil
}

func (w *feedWorkload) opListHash() string {
	bodies := make([][]byte, 0, len(w.batches)+len(w.subs))
	for i := range w.batches {
		bodies = append(bodies, w.batches[i].body)
	}
	return opListHash(append(bodies, w.subs...)...)
}

func (w *feedWorkload) boot(ctx context.Context) (*serverProc, error) {
	return startServer(ctx, w.rc.serverBin, w.rc.serverLog(), "-data-dir", w.dataDir, "-feeds")
}

func (w *feedWorkload) teardown() {
	if w.stopSSE != nil {
		w.stopSSE()
		<-w.sseErr
		w.stopSSE = nil
	}
	if w.srv != nil {
		w.srv.kill9()
		w.srv = nil
	}
	if w.dataDir != "" {
		os.RemoveAll(w.dataDir)
	}
}

// appendAck is the acknowledgement of POST /v1/feeds/{id}/frames.
type appendAck struct {
	Accepted  int  `json:"accepted"`
	NextFrame int  `json:"next_frame"`
	Epoch     int  `json:"epoch"`
	Flushed   bool `json:"flushed"`
}

// send posts one batch and checks its acknowledgement: every frame
// accepted and the cursor exactly past the batch.
func (w *feedWorkload) send(c *http.Client, b *feedBatch) (ack appendAck, flushed bool, failure string) {
	status, body, err := do(c, http.MethodPost, w.srv.base+"/v1/feeds/"+b.feed+"/frames", b.body)
	if err != nil {
		return ack, false, "transport: " + err.Error()
	}
	if status != http.StatusOK {
		return ack, false, fmt.Sprintf("status %d: %s", status, truncate(body, 160))
	}
	if err := json.Unmarshal(body, &ack); err != nil {
		return ack, false, "undecodable acknowledgement: " + err.Error()
	}
	if ack.Accepted != b.frames || ack.NextFrame != b.last+1 {
		return ack, false, fmt.Sprintf("accepted %d next_frame %d, sent %d frames ending at %d", ack.Accepted, ack.NextFrame, b.frames, b.last)
	}
	w.acked[b.feed] = ack.NextFrame
	if ack.Flushed {
		w.commits++
	}
	w.rc.bytes.add(classFeedBatch, len(b.body), len(body))
	return ack, ack.Flushed, ""
}

var clipEpochRE = regexp.MustCompile(`"clip":"[^/"]+/([^/"]+)/(\d+)\[`)

// drainEvents folds every event received so far into the stream
// accounting and returns the first receipt time per (feed, epoch).
func (w *feedWorkload) drainEvents(first map[string]time.Time) {
	for {
		select {
		case ev := <-w.events:
			if ev.typ == "gap" {
				w.gapEvents++
				continue
			}
			w.seenEvents++
			if ev.id != w.lastID+1 {
				w.idBreaks++
			}
			w.lastID = ev.id
			if m := clipEpochRE.FindStringSubmatch(ev.data); m != nil {
				key := m[1] + "/" + m[2]
				if _, ok := first[key]; !ok {
					first[key] = ev.at
				}
			}
		default:
			return
		}
	}
}

func (w *feedWorkload) measure(ctx context.Context, res *runResult) error {
	rc := w.rc
	firstEvent := map[string]time.Time{}
	w.drainEvents(firstEvent) // warm-up events are accounted, not timed
	ph, err := beginPhase(w.srv)
	if err != nil {
		return err
	}

	s := newSamples()
	c := newClient()
	n := int(rc.duration() / feedInterval)
	if n > len(w.batches)-w.next {
		n = len(w.batches) - w.next
		res.note("batch list exhausted: %d batches", n)
	}
	type commit struct {
		key      string // feed/epoch as the event's clip spells it
		due, ack time.Time
	}
	var commits []commit
	var late []float64
	base := w.next
	start := time.Now()
	sent := openLoop(n, feedInterval, start, ctx.Done(), func(i int, due time.Time) {
		b := &w.batches[base+i]
		late = append(late, float64(time.Since(due).Microseconds()))
		ack, flushed, failure := w.send(c, b)
		now := time.Now()
		ms := float64(now.Sub(due).Nanoseconds()) / 1e6
		if flushed {
			s.add(classFeedCommit, ms, failure)
			commits = append(commits, commit{
				key: fmt.Sprintf("%s/%06d", b.feed, ack.Epoch-1), due: due, ack: now,
			})
		} else {
			s.add(classFeedBatch, ms, failure)
		}
	})
	wall := time.Since(start)
	w.next += sent

	// The dispatcher is asynchronous: give the last commits' events time
	// to arrive before judging the stream.
	data, err := mustOK(ph.c, http.MethodGet, w.srv.base+"/v1/stats", nil, http.StatusOK)
	if err != nil {
		return err
	}
	var st struct{ Segments, OGs int }
	if err := json.Unmarshal(data, &st); err != nil {
		return err
	}
	for deadline := time.Now().Add(20 * time.Second); ; {
		w.drainEvents(firstEvent)
		if w.seenEvents >= st.OGs || time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}

	var delivery []float64
	for _, cm := range commits {
		at, ok := firstEvent[cm.key]
		if !ok {
			continue // an epoch with no moving object commits no OG and sends no event
		}
		// A second reading of the committing batch, not another operation.
		s.byClass[classFeedEvent] = append(s.byClass[classFeedEvent], float64(at.Sub(cm.due).Nanoseconds())/1e6)
		delivery = append(delivery, float64(at.Sub(cm.ack).Microseconds()))
	}
	res.absorb(s)
	// Stream integrity: ids dense and monotone, no gap event, one event
	// per committed OG.
	switch {
	case w.idBreaks > 0:
		res.fail("catch-all stream: %d breaks in the id sequence", w.idBreaks)
	case w.gapEvents > 0:
		res.fail("catch-all stream: %d gap events", w.gapEvents)
	case w.seenEvents != st.OGs:
		res.fail("catch-all stream: %d events for %d committed OGs", w.seenEvents, st.OGs)
	case st.Segments != w.commits:
		res.fail("stats report %d segments, %d epoch commits were acknowledged", st.Segments, w.commits)
	}
	res.measuredOps = sent
	res.measuredWall = wall

	res.e2e("ops_per_s", float64(sent)/wall.Seconds(), "1/s")
	res.latencies(s, []string{classFeedBatch})
	var frameBytes int64
	for i := base; i < base+sent; i++ {
		frameBytes += int64(len(w.batches[i].body))
	}
	if err := ph.finish(res, s, []string{classFeedBatch}, &rc.bytes, sent, 0, frameBytes); err != nil {
		return err
	}
	res.feedLayer(late, delivery, dirBytes(filepath.Join(w.dataDir, "feeds")), frameBytes)
	return nil
}

// recover SIGKILLs the server with frames pending in both journals and
// restarts it, three times: committed epochs, journaled frames and
// answers must all be there every time.
func (w *feedWorkload) recover(ctx context.Context, res *runResult) error {
	dataBytes := dirBytes(w.dataDir)
	w.stopSSE()
	<-w.sseErr
	w.stopSSE = nil
	err := crashRecover(ctx, res, w.rc.seed, 3, &w.srv, w.boot, func(c *http.Client, base string) error {
		if err := checkStats(c, base, w.commits, -1); err != nil {
			return err
		}
		for feed, want := range w.acked {
			data, err := mustOK(c, http.MethodGet, base+"/v1/feeds/"+feed, nil, http.StatusOK)
			if err != nil {
				return err
			}
			var st struct {
				NextFrame int `json:"next_frame"`
			}
			if err := json.Unmarshal(data, &st); err != nil {
				return err
			}
			if st.NextFrame != want {
				return fmt.Errorf("feed %s next_frame %d, last acknowledged %d", feed, st.NextFrame, want)
			}
		}
		return nil
	})
	if err != nil || !res.Correct {
		return err
	}
	m, err := scrape(newClient(), w.srv.base)
	if err != nil {
		return err
	}
	res.recoveryLayer(m, dataBytes)
	return nil
}
