package main

import (
	"context"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// TestSmoke boots the real server and runs every workload end to end on
// the -smoke profile, traced, so the whole path — set-up, traffic,
// oracles, kill -9 recovery, the in-process replay and the result line —
// is exercised in seconds. Numbers from it mean nothing.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("boots a server")
	}
	spec, err := loadSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "strg-server")
	build := exec.Command("go", "build", "-o", bin, "./cmd/strg-server")
	build.Dir = ".."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building the server: %v\n%s", err, out)
	}
	t.Cleanup(killAllServers)
	for _, name := range workloadNames {
		for _, trace := range []bool{false, true} {
			rc := &runCtx{
				workload: name, seed: 1, seconds: 1.5, trace: trace, smoke: true, clients: 1,
				serverBin: bin, workDir: filepath.Join(dir, "work"), outDir: filepath.Join(dir, "out"), spec: spec,
			}
			res, err := runOne(context.Background(), rc)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("%s trace=%v: correct=%v attempted=%d failed=%d: %s", name, trace, res.Correct, res.Attempted, res.Failed, res.Failure)
			}
			line, err := res.driverLine()
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			var out struct {
				Correct   bool              `json:"correct"`
				Attempted int               `json:"attempted"`
				Metrics   map[string]metric `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(line), &out); err != nil {
				t.Fatalf("%s: result line is not JSON: %v", name, err)
			}
			want := spec.EndToEnd
			if trace {
				want = spec.PerLayer
			}
			if len(out.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics on the result line, the contract lists %d", name, trace, len(out.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := out.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s [%s] missing or in unit %q", name, trace, m.Name, m.Unit, got.Unit)
				}
				if !trace && got.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s is %v; it must never be 0", name, m.Name, got.Value)
				}
			}
			if trace {
				if _, err := os.Stat(filepath.Join(rc.outDir, "trace-"+name+".json")); err != nil {
					t.Errorf("%s: no span file: %v", name, err)
				}
			}
		}
	}
	if n := len(liveProcs); n != 0 {
		t.Errorf("%d server processes left running", n)
	}
}
