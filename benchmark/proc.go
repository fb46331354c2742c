package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"dfpr/internal/telemetry"
)

// server is one prserve subprocess.
type server struct {
	name string
	base string // http://127.0.0.1:port
	args []string
	bin  string
	log  string
	cmd  *exec.Cmd
	done chan struct{} // closed when Wait returned
}

// procs tracks every subprocess started, so that any exit path stops them
// all and waits for each.
var procs struct {
	mu   sync.Mutex
	live []*server
}

// freeAddr asks the kernel for an unused loopback port.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// startServer launches prserve with args plus -addr; it does not wait for
// readiness.
func startServer(bin, name, addr, dir string, args ...string) (*server, error) {
	s := &server{name: name, base: "http://" + addr, bin: bin,
		args: append([]string{"-addr", addr, "-log-level", "warn"}, args...),
		log:  filepath.Join(dir, name+".log")}
	return s, s.start()
}

func (s *server) start() error {
	lf, err := os.OpenFile(s.log, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	defer lf.Close() // the child holds its own descriptor
	s.cmd = exec.Command(s.bin, s.args...)
	s.cmd.Stdout, s.cmd.Stderr = lf, lf
	if err := s.cmd.Start(); err != nil {
		return fmt.Errorf("start %s: %w", s.name, err)
	}
	s.done = make(chan struct{})
	go func(cmd *exec.Cmd, done chan struct{}) {
		_ = cmd.Wait() // a killed child's "signal: killed" is the expected end
		close(done)
	}(s.cmd, s.done)
	procs.mu.Lock()
	procs.live = append(procs.live, s)
	procs.mu.Unlock()
	return nil
}

// kill9 is kill -9 and waits until the process is gone.
func (s *server) kill9() {
	if s == nil || s.cmd == nil {
		return
	}
	select {
	case <-s.done:
	default:
		_ = s.cmd.Process.Kill() // already exited: nothing to kill
		<-s.done
	}
}

func (s *server) exited() bool {
	select {
	case <-s.done:
		return true
	default:
		return false
	}
}

// killAll stops every subprocess still running.
func killAll() {
	procs.mu.Lock()
	live := procs.live
	procs.live = nil
	procs.mu.Unlock()
	for _, s := range live {
		s.kill9()
	}
}

// logTail returns the last lines of the server's log, for error messages.
func (s *server) logTail() string {
	b, err := os.ReadFile(s.log)
	if err != nil {
		return ""
	}
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	if len(lines) > 8 {
		lines = lines[len(lines)-8:]
	}
	return strings.Join(lines, "\n")
}

type healthz struct {
	Status string `json:"status"`
	Ready  bool   `json:"ready"`
	Role   string `json:"role"`
}

// stats is the part of /v1/stats the checks read.
type stats struct {
	Version     uint64 `json:"version"`
	RankVersion uint64 `json:"rank_version"`
	Vertices    int    `json:"vertices"`
	Edges       int    `json:"edges"`
	Role        string `json:"role"`
}

// waitReady polls /v1/healthz every 5 ms until the node reports ready (and,
// when role is given, that role), the process dies or the deadline passes.
func (s *server) waitReady(c *conn, role string, limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for time.Now().Before(deadline) {
		if s.exited() {
			return fmt.Errorf("%s exited before it was ready:\n%s", s.name, s.logTail())
		}
		r, err := c.do(context.Background(), "GET", s.base+"/v1/healthz", nil, 0)
		if err == nil && r.ok() {
			var h healthz
			if json.Unmarshal(r.Body, &h) == nil && h.Ready && h.Status == "ok" && (role == "" || h.Role == role) {
				return nil
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	return fmt.Errorf("%s not ready within %v:\n%s", s.name, limit, s.logTail())
}

func (s *server) stats(c *conn) (stats, error) {
	var st stats
	r, err := c.do(context.Background(), "GET", s.base+"/v1/stats", nil, 0)
	if err := checkStatus(r, err, 200); err != nil {
		return st, fmt.Errorf("%s /v1/stats: %w", s.name, err)
	}
	return st, json.Unmarshal(r.Body, &st)
}

// waitRanked blocks until the node's ranks cover graph version v.
func (s *server) waitRanked(c *conn, v uint64) error {
	r, err := c.do(context.Background(), "GET", fmt.Sprintf("%s/v1/wait/%d", s.base, v), nil, 0)
	return checkStatus(r, err, 200)
}

// scrape reads /metrics through the repo's own exposition parser.
func (s *server) scrape(c *conn) (telemetry.Snapshot, error) {
	r, err := c.do(context.Background(), "GET", s.base+"/metrics", nil, 0)
	if err := checkStatus(r, err, 200); err != nil {
		return nil, fmt.Errorf("%s /metrics: %w", s.name, err)
	}
	return telemetry.ParseExposition(bytes.NewReader(r.Body))
}

// peakRSSMB reads VmHWM of a process, in MB.
func peakRSSMB(pid int) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

func (s *server) peakRSSMB() (float64, error) { return peakRSSMB(s.cmd.Process.Pid) }

// resetPeakRSS asks the kernel to restart this process's VmHWM from its
// current RSS, so that stream-rank's peak covers the engine's window and
// not the harness's input generation. Where /proc does not allow it the
// peak simply includes set-up.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // best effort by design
}
