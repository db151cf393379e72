package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// newClient returns an HTTP client that owns exactly one keep-alive
// connection, so "two clients" means two sockets.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		DialContext:         (&net.Dialer{Timeout: 5 * time.Second}).DialContext,
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		IdleConnTimeout:     time.Minute,
		DisableCompression:  true,
	}}
}

// do sends one request and returns status and the fully read body. A
// transport error is returned as err; any HTTP status is not an error.
func do(c *http.Client, method, url string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return resp.StatusCode, nil, err
	}
	return resp.StatusCode, data, nil
}

// mustOK is do for set-up and verification calls, where any answer but
// the wanted status fails the run.
func mustOK(c *http.Client, method, url string, body []byte, want int) ([]byte, error) {
	status, data, err := do(c, method, url, body)
	if err != nil {
		return nil, fmt.Errorf("%s %s: %w", method, url, err)
	}
	if status != want {
		return nil, fmt.Errorf("%s %s: status %d, want %d: %s", method, url, status, want, truncate(data, 200))
	}
	return data, nil
}

func truncate(b []byte, n int) string {
	if len(b) > n {
		return string(b[:n]) + "..."
	}
	return string(b)
}

// promSample is a parsed Prometheus text exposition: one value per
// `name{labels}` series, keyed exactly as the line spells it.
type promSample map[string]float64

// parseProm parses the text exposition format (comments skipped, one
// `series value` pair per line).
func parseProm(text []byte) (promSample, error) {
	out := promSample{}
	sc := bufio.NewScanner(bytes.NewReader(text))
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		// The value follows the last space; label values may hold spaces.
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("metrics line without a value: %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		out[strings.TrimSpace(line[:i])] = v
	}
	return out, sc.Err()
}

// delta is after − before per series; a series absent before counts from
// zero (counters are created lazily on first use).
func (after promSample) delta(before promSample) promSample {
	out := make(promSample, len(after))
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}

// sum adds every series of one family whose label set contains all of
// the given `key="value"` fragments.
func (s promSample) sum(family string, labels ...string) float64 {
	var total float64
	for k, v := range s {
		name, rest, _ := strings.Cut(k, "{")
		if name != family {
			continue
		}
		ok := true
		for _, l := range labels {
			if !strings.Contains(rest, l) {
				ok = false
				break
			}
		}
		if ok {
			total += v
		}
	}
	return total
}

// scrape fetches and parses GET /metrics.
func scrape(c *http.Client, base string) (promSample, error) {
	data, err := mustOK(c, http.MethodGet, base+"/metrics", nil, http.StatusOK)
	if err != nil {
		return nil, err
	}
	return parseProm(data)
}

// sseEvent is one Server-Sent Event as the harness needs it.
type sseEvent struct {
	id   uint64 // 0 when the event carried no id: line
	typ  string
	data string
	at   time.Time // receipt of the terminating blank line
}

// readSSE streams events from url into out until ctx ends or the stream
// closes. It returns nil on ctx cancellation.
func readSSE(ctx context.Context, url string, out chan<- sseEvent) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	c := newClient()
	resp, err := c.Do(req)
	if err != nil {
		if ctx.Err() != nil {
			return nil
		}
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("SSE %s: status %d", url, resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	var ev sseEvent
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if ev.typ != "" || ev.data != "" {
				ev.at = time.Now()
				select {
				case out <- ev:
				case <-ctx.Done():
					return nil
				}
			}
			ev = sseEvent{}
		case strings.HasPrefix(line, ":"):
			// heartbeat comment
		case strings.HasPrefix(line, "id: "):
			ev.id, _ = strconv.ParseUint(line[4:], 10, 64)
		case strings.HasPrefix(line, "event: "):
			ev.typ = line[7:]
		case strings.HasPrefix(line, "data: "):
			ev.data = line[6:]
		}
	}
	if ctx.Err() != nil {
		return nil
	}
	return sc.Err()
}
