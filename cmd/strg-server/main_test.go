package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"strgindex/internal/geom"
	"strgindex/internal/graph"
	"strgindex/internal/video"
)

// TestMain doubles as the server entry point: the lifecycle tests re-exec
// this test binary with STRG_SERVER_MAIN=1 to get a real process they can
// signal, so graceful shutdown is tested against the actual main loop.
func TestMain(m *testing.M) {
	if os.Getenv("STRG_SERVER_MAIN") == "1" {
		os.Args = append([]string{"strg-server"}, strings.Fields(os.Getenv("STRG_SERVER_ARGS"))...)
		flag.CommandLine = flag.NewFlagSet("strg-server", flag.ExitOnError)
		os.Exit(run())
	}
	os.Exit(m.Run())
}

// proc is a re-exec'd strg-server under test.
type proc struct {
	cmd  *exec.Cmd
	addr string

	mu    sync.Mutex
	lines []string
}

var listenRE = regexp.MustCompile(`msg=listening addr=(\S+)`)

func startServer(t *testing.T, args string) *proc {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), "STRG_SERVER_MAIN=1", "STRG_SERVER_ARGS="+args)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	p := &proc{cmd: cmd}
	addrc := make(chan string, 1)
	go func() {
		buf := make([]byte, 4096)
		var pending string
		for {
			n, err := stderr.Read(buf)
			pending += string(buf[:n])
			for {
				i := strings.IndexByte(pending, '\n')
				if i < 0 {
					break
				}
				line := pending[:i]
				pending = pending[i+1:]
				p.mu.Lock()
				p.lines = append(p.lines, line)
				p.mu.Unlock()
				if m := listenRE.FindStringSubmatch(line); m != nil {
					select {
					case addrc <- m[1]:
					default:
					}
				}
			}
			if err != nil {
				return
			}
		}
	}()
	t.Cleanup(func() {
		if p.cmd.ProcessState == nil {
			_ = p.cmd.Process.Kill()
			_, _ = p.cmd.Process.Wait()
		}
		if t.Failed() {
			p.mu.Lock()
			t.Logf("server output:\n%s", strings.Join(p.lines, "\n"))
			p.mu.Unlock()
		}
	})
	select {
	case p.addr = <-addrc:
	case <-time.After(15 * time.Second):
		t.Fatal("server never logged its listen address")
	}
	return p
}

func (p *proc) url(path string) string { return "http://" + p.addr + path }

func (p *proc) sigterm(t *testing.T) {
	t.Helper()
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
}

// wait blocks for process exit and returns whether it exited cleanly.
func (p *proc) wait(t *testing.T, timeout time.Duration) bool {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- p.cmd.Wait() }()
	select {
	case err := <-done:
		return err == nil
	case <-time.After(timeout):
		_ = p.cmd.Process.Kill()
		t.Fatalf("server did not exit within %s", timeout)
		return false
	}
}

func waitReady(t *testing.T, p *proc) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(p.url("/readyz"))
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatal("server never became ready")
}

// testSegmentBody is a marshaled POST /v1/segments body with one walker.
func testSegmentBody(t *testing.T, name string, y float64, seed int64) []byte {
	t.Helper()
	seg, err := video.Generate(video.SceneConfig{
		Name: name, Width: 320, Height: 240, FPS: 12, Frames: 20,
		BackgroundRows: 3, BackgroundCols: 4, Jitter: 0.8, Seed: seed,
		Objects: []video.ObjectSpec{{
			Label: "walker",
			Parts: []video.PartSpec{
				{Offset: geom.Vec(0, -16), Size: 100, Color: graph.Color{R: 0.8, G: 0.65, B: 0.5}},
				{Offset: geom.Vec(0, 0), Size: 350, Color: graph.Color{R: 0.7, G: 0.2, B: 0.4}},
				{Offset: geom.Vec(0, 17), Size: 250, Color: graph.Color{R: 0.2, G: 0.3, B: 0.5}},
			},
			Path:  []geom.Point{geom.Pt(16, y), geom.Pt(304, y)},
			Start: 0, End: 20,
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(map[string]any{"stream": "cam0", "segment": seg})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

func ingestOK(t *testing.T, p *proc, body []byte) {
	t.Helper()
	resp, err := http.Post(p.url("/v1/segments"), "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		out, _ := io.ReadAll(resp.Body)
		t.Fatalf("ingest status %d: %s", resp.StatusCode, out)
	}
}

func segmentCount(t *testing.T, p *proc) int {
	t.Helper()
	resp, err := http.Get(p.url("/v1/stats"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st struct{ Segments int }
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st.Segments
}

// gatedReader serves the first chunk immediately, then blocks until
// released — an in-flight request held open across a SIGTERM.
type gatedReader struct {
	first   *bytes.Reader
	rest    *bytes.Reader
	release chan struct{}
	opened  bool
}

func (g *gatedReader) Read(b []byte) (int, error) {
	if g.first.Len() > 0 {
		return g.first.Read(b)
	}
	if !g.opened {
		<-g.release
		g.opened = true
	}
	return g.rest.Read(b)
}

// TestGracefulShutdownRecovers is the full durability lifecycle: ingest,
// SIGTERM with a request in flight (it must complete during the drain),
// clean exit, then a fresh process recovers every acknowledged segment —
// including the one that was in flight when the signal arrived.
func TestGracefulShutdownRecovers(t *testing.T) {
	if testing.Short() {
		t.Skip("re-exec lifecycle test")
	}
	dir := t.TempDir()
	p := startServer(t, "-addr 127.0.0.1:0 -data-dir "+dir+" -grace 30s")
	waitReady(t, p)

	ingestOK(t, p, testSegmentBody(t, "seg-a", 60, 1))
	ingestOK(t, p, testSegmentBody(t, "seg-b", 120, 2))

	// Park an ingest mid-body, then signal.
	body := testSegmentBody(t, "seg-c", 180, 3)
	g := &gatedReader{
		first:   bytes.NewReader(body[:len(body)/2]),
		rest:    bytes.NewReader(body[len(body)/2:]),
		release: make(chan struct{}),
	}
	req, err := http.NewRequest("POST", p.url("/v1/segments"), g)
	if err != nil {
		t.Fatal(err)
	}
	req.ContentLength = int64(len(body))
	type result struct {
		status int
		err    error
	}
	resc := make(chan result, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			resc <- result{err: err}
			return
		}
		resp.Body.Close()
		resc <- result{status: resp.StatusCode}
	}()
	// Make sure the server has the request before the signal lands.
	time.Sleep(200 * time.Millisecond)
	p.sigterm(t)
	time.Sleep(200 * time.Millisecond)
	close(g.release)

	res := <-resc
	if res.err != nil {
		t.Fatalf("in-flight request died during drain: %v", res.err)
	}
	if res.status != http.StatusOK {
		t.Fatalf("in-flight request status %d, want 200", res.status)
	}
	if !p.wait(t, 30*time.Second) {
		t.Fatal("server exited non-zero after graceful shutdown")
	}

	// A new process on the same directory recovers all three segments.
	p2 := startServer(t, "-addr 127.0.0.1:0 -data-dir "+dir+" -grace 10s")
	waitReady(t, p2)
	if got := segmentCount(t, p2); got != 3 {
		t.Errorf("recovered %d segments, want 3 (two acked + one drained)", got)
	}
	p2.sigterm(t)
	if !p2.wait(t, 30*time.Second) {
		t.Fatal("second server exited non-zero")
	}
}

// TestSecondSIGTERMForcesExit: with a request stuck in flight and a long
// grace, the first SIGTERM drains forever — the second one must kill the
// process immediately.
func TestSecondSIGTERMForcesExit(t *testing.T) {
	if testing.Short() {
		t.Skip("re-exec lifecycle test")
	}
	p := startServer(t, "-addr 127.0.0.1:0 -data-dir "+t.TempDir()+" -grace 300s")
	waitReady(t, p)

	// Wedge a request: body never completes, so the drain cannot finish.
	pr, pw := io.Pipe()
	req, err := http.NewRequest("POST", p.url("/v1/segments"), pr)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
	}()
	if _, err := fmt.Fprint(pw, `{"stream":"cam0"`); err != nil {
		t.Fatal(err)
	}
	time.Sleep(200 * time.Millisecond)

	p.sigterm(t)
	time.Sleep(300 * time.Millisecond)
	// Still draining (the wedged request holds it open) — force it.
	p.sigterm(t)

	done := make(chan error, 1)
	go func() { done <- p.cmd.Wait() }()
	select {
	case err := <-done:
		if err == nil {
			t.Error("forced exit reported success; want non-zero (signal) exit")
		}
	case <-time.After(10 * time.Second):
		_ = p.cmd.Process.Kill()
		t.Fatal("second SIGTERM did not force exit")
	}
	pw.Close()
}

// TestFlagMisuseExits2: every flag combination the help text rules out is
// refused at validation — exit status 2 and one log line — before the
// listener binds or the data directory is created, so a typo can never
// start (or half-initialize) a server the operator did not ask for. A
// flag the server no longer defines (-shards, whose old 1–256 range the
// first two such cases probed) is refused the same way, by the flag parser.
func TestFlagMisuseExits2(t *testing.T) {
	for _, tc := range []struct{ name, args, want string }{
		{"data-dir with db", "-data-dir DIR -db x.gob", "level=ERROR"},
		{"replicate-from without data-dir", "-replicate-from http://127.0.0.1:1", "level=ERROR"},
		{"feeds without data-dir", "-feeds", "level=ERROR"},
		{"feeds on a replica", "-feeds -data-dir DIR -replicate-from http://127.0.0.1:1", "level=ERROR"},
		{"shards 0", "-shards 0 -data-dir DIR", "flag provided but not defined: -shards"},
		{"shards 257", "-shards 257 -data-dir DIR", "flag provided but not defined: -shards"},
		{"removed shards flag", "-shards 4 -data-dir DIR", "flag provided but not defined: -shards"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir() + "/data"
			args := "-addr 127.0.0.1:0 " + strings.ReplaceAll(tc.args, "DIR", dir)
			cmd := exec.Command(os.Args[0])
			cmd.Env = append(os.Environ(), "STRG_SERVER_MAIN=1", "STRG_SERVER_ARGS="+args)
			out, err := cmd.CombinedOutput()
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.ExitCode() != 2 {
				t.Fatalf("%q: err = %v, want exit status 2\n%s", args, err, out)
			}
			if !bytes.Contains(out, []byte(tc.want)) || listenRE.Match(out) {
				t.Fatalf("%q: want %q and no listener, got\n%s", args, tc.want, out)
			}
			if _, err := os.Stat(dir); !errors.Is(err, os.ErrNotExist) {
				t.Fatalf("%q: data directory was touched (stat err = %v)", args, err)
			}
		})
	}
}
