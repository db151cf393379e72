package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"strgindex/internal/core"
	"strgindex/internal/feed"
	"strgindex/internal/obs"
	"strgindex/internal/video"
)

// newFeedServer is a server with the live-feed surface mounted over a
// fresh in-memory database. fopts.Dir/DB/STRG are filled in.
func newFeedServer(t *testing.T, fopts feed.Options) (*Server, *httptest.Server, *feed.Service) {
	t.Helper()
	cfg := core.DefaultConfig()
	db := core.OpenShared(cfg)
	fopts.Dir = t.TempDir()
	fopts.DB = db
	fopts.STRG = &cfg.STRG
	svc, err := feed.Open(fopts)
	if err != nil {
		t.Fatal(err)
	}
	opts := quietOptions()
	opts.Feeds = svc
	s := NewShared(db, opts)
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	t.Cleanup(func() { svc.Close() })
	return s, ts, svc
}

// liveFrames generates a contiguous synthetic camera feed (a lab stream
// flattened to one frame sequence) plus its geometry.
func liveFrames(t *testing.T, nObjects int, seed int64) ([]video.Frame, feed.Meta) {
	t.Helper()
	p := video.StreamProfile{
		Name: "Mini", Kind: video.KindLab,
		NumObjects: nObjects, SegmentFrames: 16, ObjectsPerSegment: 2,
	}
	s, err := video.GenerateStream(p, seed)
	if err != nil {
		t.Fatal(err)
	}
	first := s.Segments[0]
	meta := feed.Meta{Width: first.Width, Height: first.Height, FPS: first.FPS}
	var frames []video.Frame
	for _, seg := range s.Segments {
		for _, f := range seg.Frames {
			f.Index = len(frames)
			frames = append(frames, f)
		}
	}
	return frames, meta
}

// ndjson renders the frames-endpoint body: an optional meta line followed
// by one frame per line.
func ndjson(t *testing.T, meta *feed.Meta, frames []video.Frame) *bytes.Buffer {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	if meta != nil {
		if err := enc.Encode(map[string]any{"meta": meta}); err != nil {
			t.Fatal(err)
		}
	}
	for i := range frames {
		if err := enc.Encode(&frames[i]); err != nil {
			t.Fatal(err)
		}
	}
	return &buf
}

// postFrames sends one NDJSON batch and decodes the append result on 200.
func postFrames(t *testing.T, ts *httptest.Server, id string, meta *feed.Meta, frames []video.Frame) (int, feed.AppendResult, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/feeds/"+id+"/frames", "application/x-ndjson", ndjson(t, meta, frames))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var res feed.AppendResult
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(body, &res); err != nil {
			t.Fatalf("append result %s: %v", body, err)
		}
	}
	return resp.StatusCode, res, body
}

// pushAll streams the whole corpus in fixed batches, flushes, and waits
// for the engine to drain.
func pushAll(t *testing.T, ts *httptest.Server, svc *feed.Service, id string, frames []video.Frame, batch int) {
	t.Helper()
	for at := 0; at < len(frames); at += batch {
		end := min(at+batch, len(frames))
		if code, _, body := postFrames(t, ts, id, nil, frames[at:end]); code != http.StatusOK {
			t.Fatalf("batch at %d: status %d: %s", at, code, body)
		}
	}
	resp, err := http.Post(ts.URL+"/v1/feeds/"+id+"/flush", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("flush status %d", resp.StatusCode)
	}
	svc.Engine().Quiesce()
}

// subscribe registers a standing query over HTTP and returns its summary.
func subscribe(t *testing.T, ts *httptest.Server, doc string) feed.SubInfo {
	t.Helper()
	resp, body := post(t, ts.URL+"/v1/subscriptions", json.RawMessage(doc))
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("subscribe status %d: %s", resp.StatusCode, body)
	}
	var info feed.SubInfo
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatal(err)
	}
	if info.ID == "" {
		t.Fatalf("subscription without ID: %s", body)
	}
	return info
}

func subInfo(t *testing.T, ts *httptest.Server, id string) feed.SubInfo {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/subscriptions/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var info feed.SubInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	return info
}

// sseEvent is one parsed Server-Sent Event.
type sseEvent struct {
	id    string
	event string
	data  string
}

// parseSSE reads events off an SSE stream into ch until the stream ends.
func parseSSE(r io.Reader, ch chan<- sseEvent) {
	defer close(ch)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	var ev sseEvent
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if ev.event != "" || ev.data != "" || ev.id != "" {
				ch <- ev
			}
			ev = sseEvent{}
		case strings.HasPrefix(line, "id: "):
			ev.id = strings.TrimPrefix(line, "id: ")
		case strings.HasPrefix(line, "event: "):
			ev.event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			ev.data = strings.TrimPrefix(line, "data: ")
		}
	}
}

// drainOnce fetches the buffered window with ?once=1 plus the given extra
// query/header cursor and returns the parsed events.
func drainOnce(t *testing.T, ts *httptest.Server, id, extraQuery, lastEventID string) []sseEvent {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, ts.URL+"/v1/subscriptions/"+id+"/events?once=1"+extraQuery, nil)
	if err != nil {
		t.Fatal(err)
	}
	if lastEventID != "" {
		req.Header.Set("Last-Event-ID", lastEventID)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("events status %d: %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}
	ch := make(chan sseEvent, 4096)
	parseSSE(resp.Body, ch)
	var evs []sseEvent
	for ev := range ch {
		evs = append(evs, ev)
	}
	return evs
}

// TestFeedHTTPLifecycle drives a feed end to end over the wire: creation
// with a meta line, batched appends with an idempotent duplicate re-send,
// state and listing probes, and the error surface (missing meta, invalid
// ID, geometry conflict, out-of-order batch with the frame_order code).
func TestFeedHTTPLifecycle(t *testing.T) {
	_, ts, svc := newFeedServer(t, feed.Options{MinEpochFrames: 12, MaxEpochFrames: 64})
	frames, meta := liveFrames(t, 4, 11)

	// Appending to a nonexistent feed without a meta line is a 404.
	if code, _, body := postFrames(t, ts, "cam", nil, frames[:4]); code != http.StatusNotFound {
		t.Fatalf("append without meta: status %d: %s", code, body)
	}
	// An invalid ID never creates a directory.
	if code, _, _ := postFrames(t, ts, strings.Repeat("a", 65), &meta, nil); code != http.StatusBadRequest {
		t.Fatal("invalid feed ID accepted")
	}
	// Creation: meta line only, no frames yet.
	if code, res, body := postFrames(t, ts, "cam", &meta, nil); code != http.StatusOK || res.NextFrame != 0 {
		t.Fatalf("create: status %d res %+v: %s", code, res, body)
	}
	// Geometry is fixed at creation.
	bad := meta
	bad.Width++
	if code, _, body := postFrames(t, ts, "cam", &bad, nil); code != http.StatusConflict {
		t.Fatalf("geometry conflict: status %d: %s", code, body)
	}

	code, res, body := postFrames(t, ts, "cam", nil, frames[:8])
	if code != http.StatusOK || res.Accepted != 8 || res.NextFrame != 8 {
		t.Fatalf("first batch: status %d res %+v: %s", code, res, body)
	}
	// A client retrying after a lost ack is idempotent.
	code, res, _ = postFrames(t, ts, "cam", nil, frames[:8])
	if code != http.StatusOK || res.Accepted != 0 || res.Duplicates != 8 || res.NextFrame != 8 {
		t.Fatalf("duplicate re-send: status %d res %+v", code, res)
	}
	// A gap rejects the whole batch with its own code and the expected
	// index, so the client can resynchronize.
	code, _, body = postFrames(t, ts, "cam", nil, frames[16:20])
	if code != http.StatusConflict {
		t.Fatalf("gapped batch: status %d: %s", code, body)
	}
	env := decodeError(t, body)
	if env.Error.Code != CodeFrameOrder || !strings.Contains(env.Error.Message, "expects index 8") {
		t.Fatalf("gapped batch envelope = %+v", env)
	}

	pushAll(t, ts, svc, "cam", frames[8:], 8)
	f, ok := svc.Feed("cam")
	if !ok {
		t.Fatal("feed lost")
	}
	if st := f.State(); st.NextFrame != len(frames) || st.Epoch == 0 {
		t.Fatalf("state = %+v", st)
	}

	resp, err := http.Get(ts.URL + "/v1/feeds/cam")
	if err != nil {
		t.Fatal(err)
	}
	var st feed.State
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.ID != "cam" || st.NextFrame != len(frames) {
		t.Fatalf("GET state = %+v", st)
	}
	resp, err = http.Get(ts.URL + "/v1/feeds")
	if err != nil {
		t.Fatal(err)
	}
	var list struct {
		Feeds []feed.State `json:"feeds"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(list.Feeds) != 1 || list.Feeds[0].ID != "cam" {
		t.Fatalf("feed list = %+v", list)
	}
}

// TestFeedSSEExactlyOnceInOrder opens one live event stream and proves
// push delivery: every event the subscription produced arrives exactly
// once, in order, with dense sequence numbers starting at 1.
func TestFeedSSEExactlyOnceInOrder(t *testing.T) {
	_, ts, svc := newFeedServer(t, feed.Options{MinEpochFrames: 12, MaxEpochFrames: 48})
	frames, meta := liveFrames(t, 6, 9)
	if code, _, body := postFrames(t, ts, "cam", &meta, nil); code != http.StatusOK {
		t.Fatalf("create: %d %s", code, body)
	}
	info := subscribe(t, ts, `{"where": {"longer_than": 1}}`)

	resp, err := http.Get(ts.URL + "/v1/subscriptions/" + info.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	ch := make(chan sseEvent, 4096)
	go parseSSE(resp.Body, ch)

	pushAll(t, ts, svc, "cam", frames, 8)

	want := subInfo(t, ts, info.ID).LastSeq
	if want == 0 {
		t.Fatal("no events produced; the corpus should yield OGs")
	}
	var got []sseEvent
	deadline := time.After(30 * time.Second)
	for uint64(len(got)) < want {
		select {
		case ev, ok := <-ch:
			if !ok {
				t.Fatalf("stream ended after %d/%d events", len(got), want)
			}
			got = append(got, ev)
		case <-deadline:
			t.Fatalf("timed out after %d/%d events", len(got), want)
		}
	}
	for i, ev := range got {
		if ev.id != strconv.Itoa(i+1) {
			t.Fatalf("event %d has id %q, want dense ids from 1: %+v", i, ev.id, got)
		}
		if ev.event != "match" {
			t.Fatalf("event %d type %q, want match", i, ev.event)
		}
		var payload feed.Event
		if err := json.Unmarshal([]byte(ev.data), &payload); err != nil {
			t.Fatalf("event %d data %q: %v", i, ev.data, err)
		}
		if payload.Seq != uint64(i+1) || payload.Stream != "cam" || payload.Clip == "" {
			t.Fatalf("event %d payload = %+v", i, payload)
		}
	}
}

// TestFeedSSEResumeAndGap proves the reconnect contract over a tiny ring:
// a cursor inside the retained window resumes exactly-once; a cursor that
// fell out gets one un-id'd gap event naming the missed range, then the
// window.
func TestFeedSSEResumeAndGap(t *testing.T) {
	const ringSize = 4
	_, ts, svc := newFeedServer(t, feed.Options{MinEpochFrames: 12, MaxEpochFrames: 48, RingSize: ringSize})
	frames, meta := liveFrames(t, 6, 21)
	if code, _, body := postFrames(t, ts, "cam", &meta, nil); code != http.StatusOK {
		t.Fatalf("create: %d %s", code, body)
	}
	info := subscribe(t, ts, `{"where": {"longer_than": 1}}`)
	pushAll(t, ts, svc, "cam", frames, 8)

	last := subInfo(t, ts, info.ID).LastSeq
	if last <= ringSize {
		t.Fatalf("only %d events; need more than the ring's %d", last, ringSize)
	}

	// Cold read from 0: gap first, then the retained window.
	evs := drainOnce(t, ts, info.ID, "", "")
	if len(evs) != ringSize+1 {
		t.Fatalf("got %d events, want gap + %d: %+v", len(evs), ringSize, evs)
	}
	if evs[0].event != "gap" || evs[0].id != "" {
		t.Fatalf("first event = %+v, want un-id'd gap", evs[0])
	}
	var gap struct {
		MissedFrom uint64 `json:"missed_from"`
		Resume     uint64 `json:"resume"`
	}
	if err := json.Unmarshal([]byte(evs[0].data), &gap); err != nil {
		t.Fatal(err)
	}
	if gap.MissedFrom != 1 || gap.Resume != last-ringSize {
		t.Fatalf("gap = %+v, want missed_from 1 resume %d", gap, last-ringSize)
	}
	for i, ev := range evs[1:] {
		if want := last - uint64(ringSize) + uint64(i) + 1; ev.id != strconv.FormatUint(want, 10) {
			t.Fatalf("window event %d id %q, want %d", i, ev.id, want)
		}
	}

	// Reconnect from inside the window via Last-Event-ID: no gap, only
	// the events after the cursor.
	evs = drainOnce(t, ts, info.ID, "", strconv.FormatUint(last-1, 10))
	if len(evs) != 1 || evs[0].event == "gap" || evs[0].id != strconv.FormatUint(last, 10) {
		t.Fatalf("Last-Event-ID resume = %+v, want exactly seq %d", evs, last)
	}
	// ?after= behaves the same; a caught-up cursor gets nothing.
	if evs := drainOnce(t, ts, info.ID, "&after="+strconv.FormatUint(last, 10), ""); len(evs) != 0 {
		t.Fatalf("caught-up cursor replayed %+v", evs)
	}
	// A malformed cursor is a 400, not a stream.
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/subscriptions/"+info.ID+"/events?after=x", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad cursor status %d", resp.StatusCode)
	}
}

// TestFeedSSEStalledConsumerNeverDelaysIngest opens an event stream and
// never reads it, then pushes the whole corpus. The bounded ring must
// absorb the stall — every append completes, the feed-ingest latency
// histogram shows no outliers, and the subscription reports dropped
// events instead of exerting backpressure.
func TestFeedSSEStalledConsumerNeverDelaysIngest(t *testing.T) {
	s, ts, svc := newFeedServer(t, feed.Options{MinEpochFrames: 12, MaxEpochFrames: 48, RingSize: 4})
	frames, meta := liveFrames(t, 6, 33)
	if code, _, body := postFrames(t, ts, "cam", &meta, nil); code != http.StatusOK {
		t.Fatalf("create: %d %s", code, body)
	}
	info := subscribe(t, ts, `{"where": {"longer_than": 1}}`)

	// The stalled consumer: connected, never reading.
	resp, err := http.Get(ts.URL + "/v1/subscriptions/" + info.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	hist := s.reg.Histogram("strg_http_request_seconds", "", obs.Labels{"path": "/v1/feeds/frames"}, nil)
	before := hist.Count()
	const batch = 8
	posts := int64(0)
	for at := 0; at < len(frames); at += batch {
		end := min(at+batch, len(frames))
		if code, _, body := postFrames(t, ts, "cam", nil, frames[at:end]); code != http.StatusOK {
			t.Fatalf("batch at %d stalled or failed: status %d: %s", at, code, body)
		}
		posts++
	}
	svc.Engine().Quiesce()

	if got := hist.Count() - before; got != posts {
		t.Fatalf("latency histogram saw %d appends, want %d", got, posts)
	}
	if mean := hist.Sum() / float64(hist.Count()); mean > 2.0 {
		t.Fatalf("mean append latency %.3fs with a stalled consumer; ingest is being delayed", mean)
	}
	after := subInfo(t, ts, info.ID)
	if after.LastSeq <= 4 {
		t.Fatalf("only %d events; the corpus should overflow the ring", after.LastSeq)
	}
	if after.Dropped == 0 {
		t.Fatal("ring dropped nothing; a stalled consumer must shed events, not block ingest")
	}
}

// TestSubscriptionHTTPLifecycle covers the non-streaming subscription
// surface: rejection of invalid documents, listing, per-ID lookup, and
// unregistration closing the stream.
func TestSubscriptionHTTPLifecycle(t *testing.T) {
	_, ts, _ := newFeedServer(t, feed.Options{})

	for _, doc := range []string{
		`{}`,
		`not json`,
		`{"similar": {"trajectory": [[1, 1]], "k": 2, "mode": "approx"}}`,
	} {
		resp, err := http.Post(ts.URL+"/v1/subscriptions", "application/json", strings.NewReader(doc))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("doc %s: status %d: %s", doc, resp.StatusCode, body)
		}
	}

	knn := subscribe(t, ts, `{"similar": {"trajectory": [[20, 120], [280, 120]], "k": 2}}`)
	if knn.Kind != "knn" || knn.K != 2 {
		t.Fatalf("knn info = %+v", knn)
	}
	rng := subscribe(t, ts, `{"similar": {"trajectory": [[20, 120]], "radius": 50}}`)
	if rng.Kind != "range" || rng.Radius != 50 {
		t.Fatalf("range info = %+v", rng)
	}

	resp, err := http.Get(ts.URL + "/v1/subscriptions")
	if err != nil {
		t.Fatal(err)
	}
	var list struct {
		Subscriptions []feed.SubInfo `json:"subscriptions"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(list.Subscriptions) != 2 {
		t.Fatalf("list = %+v", list)
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/subscriptions/"+knn.ID, nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("unsubscribe status %d", resp.StatusCode)
	}
	resp, err = http.DefaultClient.Do(req.Clone(req.Context()))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("double unsubscribe status %d", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/v1/subscriptions/" + knn.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("events on deleted subscription: status %d", resp.StatusCode)
	}
}

// TestFeedNDJSONErrors covers the frames decoder's rejection paths.
func TestFeedNDJSONErrors(t *testing.T) {
	_, ts, _ := newFeedServer(t, feed.Options{})
	frames, meta := liveFrames(t, 4, 7)
	if code, _, body := postFrames(t, ts, "cam", &meta, nil); code != http.StatusOK {
		t.Fatalf("create: %d %s", code, body)
	}

	// Garbage mid-stream names the offending line.
	body := ndjson(t, nil, frames[:2])
	body.WriteString("{\"Index\": }\n")
	resp, err := http.Post(ts.URL+"/v1/feeds/cam/frames", "application/x-ndjson", body)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage line: status %d: %s", resp.StatusCode, raw)
	}
	env := decodeError(t, raw)
	if env.Error.Code != CodeBadRequest || !strings.Contains(env.Error.Message, "line 3") {
		t.Fatalf("garbage line envelope = %+v", env)
	}
	// Nothing before the bad line was journaled: the batch is atomic.
	if code, res, _ := postFrames(t, ts, "cam", nil, nil); code != http.StatusOK || res.NextFrame != 0 {
		t.Fatalf("cursor moved on a rejected batch: %+v", res)
	}

	// A meta line anywhere but first is rejected.
	body = ndjson(t, nil, frames[:1])
	metaLine, _ := json.Marshal(map[string]any{"meta": meta})
	body.Write(append(metaLine, '\n'))
	resp, err = http.Post(ts.URL+"/v1/feeds/cam/frames", "application/x-ndjson", body)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(raw), "first line") {
		t.Fatalf("late meta: status %d: %s", resp.StatusCode, raw)
	}
}

// TestIngestFrameOrderCode is the one-shot ingest half of the frame-order
// contract: a segment whose indices are gapped is rejected up front with
// the frame_order code, before the pipeline sees it.
func TestIngestFrameOrderCode(t *testing.T) {
	_, ts := newTestServer(t)
	seg := testSegment(t, "walker", 120, 1)
	seg.Frames[2].Index = 7
	resp, body := post(t, ts.URL+"/v1/segments", map[string]any{"stream": "cam0", "segment": seg})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	env := decodeError(t, body)
	if env.Error.Code != CodeFrameOrder {
		t.Fatalf("code = %q, want %q (%s)", env.Error.Code, CodeFrameOrder, body)
	}
	if !strings.Contains(env.Error.Message, "position 2") || !strings.Contains(env.Error.Message, "index 7") {
		t.Fatalf("message does not name the violation: %s", env.Error.Message)
	}
}

// TestFeedRoutesMethodNotAllowed proves wildcard feed routes answer 405
// (with Allow) rather than falling through to the 404 catch-all.
func TestFeedRoutesMethodNotAllowed(t *testing.T) {
	_, ts, _ := newFeedServer(t, feed.Options{})
	for path, allow := range map[string]string{
		"/v1/feeds/cam/frames": http.MethodPost,
		"/v1/feeds":            http.MethodGet,
		"/v1/subscriptions":    "GET, POST",
	} {
		req, _ := http.NewRequest(http.MethodPut, ts.URL+path, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("PUT %s: status %d, want 405", path, resp.StatusCode)
		}
		if got := resp.Header.Get("Allow"); got != allow {
			t.Errorf("PUT %s: Allow = %q, want %q", path, got, allow)
		}
	}
}
