package server

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"strgindex/internal/core"
)

func decodeError(t *testing.T, body []byte) errorEnvelope {
	t.Helper()
	var env errorEnvelope
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatalf("decoding error envelope %s: %v", body, err)
	}
	return env
}

// TestAdmissionSheds fills the single in-flight slot with a request whose
// body never arrives, then proves the next API request is shed with 429 +
// Retry-After while the probe endpoints keep answering.
func TestAdmissionSheds(t *testing.T) {
	opts := quietOptions()
	opts.MaxInFlight = 1
	opts.QueueTimeout = 20 * time.Millisecond
	s := NewWith(core.DefaultConfig(), opts)
	ts := httptest.NewServer(s)
	defer ts.Close()

	// Occupy the slot: the ingest handler blocks reading this body.
	pr, pw := io.Pipe()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		req, _ := http.NewRequest("POST", ts.URL+"/v1/segments", pr)
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
	}()
	// Wait until the blocker actually holds the slot.
	deadline := time.Now().Add(2 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/v1/stats")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusTooManyRequests {
			if resp.Header.Get("Retry-After") == "" {
				t.Error("429 without Retry-After")
			}
			if env := decodeError(t, body); env.Error.Code != CodeOverloaded {
				t.Errorf("shed code = %q, want %q", env.Error.Code, CodeOverloaded)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("server never saturated")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Probes and metrics bypass admission even at capacity.
	for _, path := range []string{"/healthz", "/readyz", "/metrics"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s at capacity: status %d, want 200", path, resp.StatusCode)
		}
	}

	// Release the slot; the API serves again.
	pw.CloseWithError(io.ErrUnexpectedEOF)
	wg.Wait()
	deadline = time.Now().Add(2 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/v1/stats")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("API still shedding after slot release: %d", resp.StatusCode)
		}
		time.Sleep(5 * time.Millisecond)
	}

	if got := s.reg.Counter("strg_http_shed_total", "", nil).Value(); got == 0 {
		t.Error("strg_http_shed_total not incremented")
	}
}

// TestAdmissionQueueAdmits proves a queued request is admitted (not shed)
// when a slot frees within the queue timeout.
func TestAdmissionQueueAdmits(t *testing.T) {
	opts := quietOptions()
	opts.MaxInFlight = 1
	opts.QueueTimeout = 2 * time.Second
	s := NewWith(core.DefaultConfig(), opts)
	ts := httptest.NewServer(s)
	defer ts.Close()

	pr, pw := io.Pipe()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		req, _ := http.NewRequest("POST", ts.URL+"/v1/segments", pr)
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
	}()
	// Give the blocker time to take the slot, free it shortly after.
	time.Sleep(50 * time.Millisecond)
	go func() {
		time.Sleep(100 * time.Millisecond)
		pw.CloseWithError(io.ErrUnexpectedEOF)
	}()
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("queued request: status %d, want 200 after slot freed", resp.StatusCode)
	}
	wg.Wait()
}

// TestRequestTimeout proves the server-side deadline turns an
// over-deadline query into 504 with the timeout error code.
func TestRequestTimeout(t *testing.T) {
	opts := quietOptions()
	opts.RequestTimeout = time.Nanosecond
	s := NewWith(core.DefaultConfig(), opts)
	ts := httptest.NewServer(s)
	defer ts.Close()

	// The deadline does not apply to ingest durability, so seeding data
	// works even with a nanosecond budget; the query path then has real
	// candidates and observes its expired context.
	if _, err := s.DB().IngestSegment("cam0", testSegment(t, "walker", 120, 7)); err != nil {
		t.Fatal(err)
	}
	resp, body := postSimilar(t, ts.URL, map[string]any{
		"trajectory": [][2]float64{{10, 10}, {20, 20}}, "k": 3,
	})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504: %s", resp.StatusCode, body)
	}
	if env := decodeError(t, body); env.Error.Code != CodeTimeout {
		t.Errorf("code = %q, want %q", env.Error.Code, CodeTimeout)
	}
}

// TestReadyzLifecycle covers the liveness/readiness split: /healthz is
// always 200 while the process lives; /readyz follows SetReady.
func TestReadyzLifecycle(t *testing.T) {
	opts := quietOptions()
	opts.StartUnready = true
	s := NewWith(core.DefaultConfig(), opts)
	ts := httptest.NewServer(s)
	defer ts.Close()

	check := func(path string, want int) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("%s: status %d, want %d (%s)", path, resp.StatusCode, want, body)
		}
	}
	check("/healthz", http.StatusOK)
	check("/readyz", http.StatusServiceUnavailable)
	s.SetReady(true)
	check("/readyz", http.StatusOK)
	check("/healthz", http.StatusOK)
	// Shutdown drain: readiness drops, liveness holds.
	s.SetReady(false)
	check("/readyz", http.StatusServiceUnavailable)
	check("/healthz", http.StatusOK)
}

// TestReadyByDefault: a server without StartUnready serves immediately.
func TestReadyByDefault(t *testing.T) {
	s := NewWith(core.DefaultConfig(), quietOptions())
	ts := httptest.NewServer(s)
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/readyz on a default server: %d, want 200", resp.StatusCode)
	}
}
