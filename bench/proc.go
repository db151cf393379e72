package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// serverProc is one running strg-server child. The harness owns its
// lifetime: every started child is registered in liveProcs so a failing
// run or a SIGINT kills it before the harness exits.
type serverProc struct {
	cmd     *exec.Cmd
	base    string // http://127.0.0.1:port
	logPath string
	log     *os.File
	// bootTime is exec → /readyz 200.
	bootTime time.Duration
	// exited closes once the child has been reaped.
	exited chan struct{}
}

var (
	liveMu    sync.Mutex
	liveProcs = map[*serverProc]struct{}{}
)

// killAllServers SIGKILLs and reaps every child still registered.
func killAllServers() {
	liveMu.Lock()
	ps := make([]*serverProc, 0, len(liveProcs))
	for p := range liveProcs {
		ps = append(ps, p)
	}
	liveMu.Unlock()
	for _, p := range ps {
		p.kill9()
	}
}

var listenRE = regexp.MustCompile(`msg=listening addr=(\S+)`)

// startServer execs the server binary on an ephemeral port (the kernel
// picks it; the child logs the bound address) and waits for /readyz 200.
// Server stderr goes straight to logPath so a chatty server never blocks
// on the harness.
func startServer(ctx context.Context, bin, logPath string, args ...string) (*serverProc, error) {
	if err := os.MkdirAll(filepath.Dir(logPath), 0o755); err != nil {
		return nil, err
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	cmd.Stderr = logf
	cmd.Stdout = logf
	start := time.Now()
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	p := &serverProc{cmd: cmd, logPath: logPath, log: logf, exited: make(chan struct{})}
	liveMu.Lock()
	liveProcs[p] = struct{}{}
	liveMu.Unlock()
	exited := p.exited
	go func() {
		_ = cmd.Wait() // exit status is irrelevant: kill9 is the normal end
		close(exited)
	}()
	fail := func(err error) (*serverProc, error) {
		p.kill9()
		return nil, fmt.Errorf("%w\n--- server log tail (%s) ---\n%s", err, logPath, tailFile(logPath, 30))
	}

	deadline := time.Now().Add(150 * time.Second)
	for p.base == "" {
		select {
		case <-exited:
			return fail(fmt.Errorf("server exited before listening"))
		case <-ctx.Done():
			return fail(ctx.Err())
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			return fail(fmt.Errorf("server did not log its address"))
		}
		data, _ := os.ReadFile(logPath)
		if m := listenRE.FindSubmatch(data); m != nil {
			p.base = "http://" + string(m[1])
		}
	}
	for {
		resp, err := http.Get(p.base + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		select {
		case <-exited:
			return fail(fmt.Errorf("server exited before ready"))
		case <-ctx.Done():
			return fail(ctx.Err())
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			return fail(fmt.Errorf("server not ready after %v", time.Since(start)))
		}
	}
	p.bootTime = time.Since(start)
	return p, nil
}

// kill9 SIGKILLs the child and waits until it is gone. Idempotent.
func (p *serverProc) kill9() {
	liveMu.Lock()
	_, live := liveProcs[p]
	delete(liveProcs, p)
	liveMu.Unlock()
	if !live {
		return
	}
	_ = p.cmd.Process.Signal(syscall.SIGKILL)
	<-p.exited
	p.log.Close()
}

// statusMB reads one "Key:\tvalue kB" field of /proc/<pid>/status in MB.
func (p *serverProc) statusMB(key string) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, key+":"); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("%s not in /proc status", key)
}

// cpuSeconds is the child's utime+stime from /proc/<pid>/stat.
func (p *serverProc) cpuSeconds() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised comm; utime and stime are fields 14
	// and 15 of the whole line, i.e. 12 and 13 after the ") ".
	i := bytes.LastIndexByte(data, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc stat")
	}
	f := strings.Fields(string(data[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat")
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("unparsable /proc stat times")
	}
	const clkTck = 100 // USER_HZ is 100 on every Linux ABI Go supports
	return (ut + st) / clkTck, nil
}

// tailFile returns the last n lines of a file (best effort, for failure
// reports).
func tailFile(path string, n int) string {
	data, err := os.ReadFile(path)
	if err != nil {
		return "(" + err.Error() + ")"
	}
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	if len(lines) > n {
		lines = lines[len(lines)-n:]
	}
	return strings.Join(lines, "\n")
}

// dirBytes sums regular-file sizes under dir.
func dirBytes(dir string) int64 {
	var total int64
	_ = filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			total += info.Size()
		}
		return nil
	})
	return total
}
