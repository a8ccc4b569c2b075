package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// server is one refserve child process.
type server struct {
	cmd     *exec.Cmd
	addr    string
	flags   []string
	spawned time.Time
	exited  chan struct{} // closed once cmd.Wait returns
	log     *os.File
}

// live tracks started servers so that an aborted run still stops them.
var live = struct {
	sync.Mutex
	m map[*server]bool
}{m: map[*server]bool{}}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// refserveFlags are the deployment settings the benchmark passes; every
// other flag keeps refserve's default. dataDir adds the durable data dir
// with the default -wal-sync always, stated explicitly.
func refserveFlags(addr, dataDir string) []string {
	flags := []string{"-addr", addr, "-scenario", "lubm", "-scale", "1", "-seed", strconv.Itoa(dataSeed)}
	if dataDir != "" {
		flags = append(flags, "-data-dir", dataDir, "-wal-sync", "always")
	}
	return flags
}

// startServer spawns refserve with its output appended to logPath: the
// default -log-json writes a line per query, and an unread pipe would
// stall the server.
func startServer(bin, dataDir, logPath string) (*server, error) {
	port, err := freePort()
	if err != nil {
		return nil, fmt.Errorf("pick port: %w", err)
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	s := &server{addr: addr, flags: refserveFlags(addr, dataDir), exited: make(chan struct{}), log: logf}
	s.cmd = exec.Command(bin, s.flags...)
	s.cmd.Stdout, s.cmd.Stderr = logf, logf
	// Should the benchmark die without stopping it, the server drains
	// and exits too.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGTERM}
	s.spawned = time.Now()
	if err := s.cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	live.Lock()
	live.m[s] = true
	live.Unlock()
	go func() {
		_ = s.cmd.Wait() // the exit status of a stopped server is not a result
		close(s.exited)
	}()
	return s, nil
}

// waitReady polls /v1/readyz until it answers 200 and returns the time
// from spawn to that answer.
func (s *server) waitReady(timeout time.Duration) (time.Duration, error) {
	hc := &http.Client{Timeout: time.Second, Transport: &http.Transport{DisableKeepAlives: true}}
	deadline := s.spawned.Add(timeout)
	for time.Now().Before(deadline) {
		select {
		case <-s.exited:
			return 0, fmt.Errorf("refserve exited during boot (see %s)", s.log.Name())
		default:
		}
		resp, err := hc.Get("http://" + s.addr + "/v1/readyz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body) // drained only to end the exchange
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return time.Since(s.spawned), nil
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	return 0, fmt.Errorf("refserve not ready after %s", timeout)
}

// peakRSSMB reads the server's VmHWM (peak resident set) in MiB.
func (s *server) peakRSSMB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", s.cmd.Process.Pid)
}

// stop sends SIGTERM (refserve drains and closes its WAL) and waits for
// the exit, killing the process if it outlives the grace.
func (s *server) stop() {
	_ = s.cmd.Process.Signal(syscall.SIGTERM) // fails only if it already exited
	select {
	case <-s.exited:
	case <-time.After(15 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.exited
	}
	s.log.Close()
	live.Lock()
	delete(live.m, s)
	live.Unlock()
}

// stopAll stops every server still running.
func stopAll() {
	live.Lock()
	var ss []*server
	for s := range live.m {
		ss = append(ss, s)
	}
	live.Unlock()
	for _, s := range ss {
		s.stop()
	}
}

// client is the closed-loop client: one goroutine, one keep-alive
// connection.
type client struct {
	base string
	hc   *http.Client
	tr   *http.Transport
	buf  bytes.Buffer
}

func newClient(addr string) *client {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
	return &client{base: "http://" + addr, hc: &http.Client{Transport: tr, Timeout: 60 * time.Second}, tr: tr}
}

func (c *client) close() { c.tr.CloseIdleConnections() }

// do sends one request and reads the whole body; the latency runs from
// sending the request to the last body byte. The returned body aliases
// the client's buffer and is valid until the next call.
func (c *client) do(ctx context.Context, method, path string, body []byte) (int, []byte, time.Duration, error) {
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	c.buf.Reset()
	start := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, 0, fmt.Errorf("%s %s: %w", method, path, err)
	}
	_, err = c.buf.ReadFrom(resp.Body)
	lat := time.Since(start)
	resp.Body.Close()
	if err != nil {
		return 0, nil, 0, fmt.Errorf("%s %s: read body: %w", method, path, err)
	}
	return resp.StatusCode, c.buf.Bytes(), lat, nil
}
