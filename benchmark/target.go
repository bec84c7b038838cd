package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/gbbs/serve"
	"repro/internal/vfs"
)

// serveOpts is the daemon configuration a serving workload asks for; the
// same values configure the child process and the in-process server of a
// traced run.
type serveOpts struct {
	threads       int
	cacheMB       int64
	resultCacheMB int64
	dataDir       string // empty: in-memory store
}

var tenantWeights = map[string]int{"gold": 3, "bronze": 1}

// target is a running gbbs-serve the clients talk to over loopback: a
// child process (untraced runs — what users run) or serve.Server inside
// this process behind the same net/http server (traced runs, so that the
// handler and the store's filesystem can be wrapped from outside).
type target struct {
	base string
	pid  int // child process id; 0 in process
	stop func()
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startDaemon boots the built gbbs-serve binary on a free port, its output
// captured to a file in the scratch directory, and waits for /healthz.
func startDaemon(ctx context.Context, e *env, o serveOpts) (*target, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	logFile, err := os.CreateTemp(e.work, "gbbs-serve-*.log")
	if err != nil {
		return nil, err
	}
	args := []string{
		"-addr", "127.0.0.1:" + strconv.Itoa(port),
		"-threads", strconv.Itoa(o.threads),
		"-cache-mb", strconv.FormatInt(o.cacheMB, 10),
		"-result-cache-mb", strconv.FormatInt(o.resultCacheMB, 10),
		"-tenant-weights", "gold=3,bronze=1",
	}
	if o.dataDir != "" {
		args = append(args, "-data-dir", o.dataDir)
	}
	cmd := exec.Command(e.serveBin, args...)
	cmd.Stdout, cmd.Stderr = logFile, logFile
	// The child must not outlive this process on any exit path, including
	// SIGKILL of the benchmark itself.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logFile.Close()
		return nil, fmt.Errorf("starting %s: %w", e.serveBin, err)
	}
	t := &target{base: "http://127.0.0.1:" + strconv.Itoa(port), pid: cmd.Process.Pid}
	exited := make(chan struct{})
	//gbbs:lint-allow nakedgo reaps the child process; ends when the child does, and stop waits for it
	go func() {
		cmd.Wait() //nolint:errcheck // exit status of a killed daemon is not interesting
		close(exited)
	}()
	t.stop = func() {
		cmd.Process.Signal(syscall.SIGTERM) //nolint:errcheck // already gone is fine
		select {
		case <-exited:
		case <-time.After(5 * time.Second):
			cmd.Process.Kill() //nolint:errcheck // already gone is fine
			<-exited
		}
		logFile.Close()
	}
	if err := waitHealthy(ctx, t.base, exited); err != nil {
		t.stop()
		tail, _ := os.ReadFile(logFile.Name())
		return nil, fmt.Errorf("daemon did not come up: %w\n%s", err, lastBytes(tail, 2000))
	}
	return t, nil
}

func lastBytes(b []byte, n int) []byte {
	if len(b) > n {
		return b[len(b)-n:]
	}
	return b
}

// waitHealthy polls /healthz until it answers 200, the daemon exits, or ten
// seconds pass.
func waitHealthy(ctx context.Context, base string, exited <-chan struct{}) error {
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case <-exited:
			return fmt.Errorf("daemon exited during start-up")
		case <-ctx.Done():
			return ctx.Err()
		default:
		}
		resp, err := http.Get(base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body) //nolint:errcheck // draining for connection reuse only
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	return fmt.Errorf("no healthy /healthz within 10s")
}

// startInProcess serves a serve.Server configured like the daemon from
// inside this process, on a loopback listener, behind wrap.
func startInProcess(o serveOpts, wrap func(http.Handler) http.Handler, fs vfs.FS) (*target, error) {
	srv := serve.New(serve.Config{
		MaxThreads:       o.threads,
		CacheBytes:       o.cacheMB << 20,
		ResultCacheBytes: o.resultCacheMB << 20,
		TenantWeights:    tenantWeights,
		DataDir:          o.dataDir,
		StoreFS:          fs,
	})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	var h http.Handler = srv
	if wrap != nil {
		h = wrap(srv)
	}
	hs := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	done := make(chan struct{})
	//gbbs:lint-allow nakedgo the in-process HTTP listener of a traced run; Serve returns when stop shuts it down, and stop waits
	go func() {
		hs.Serve(l) //nolint:errcheck // always ErrServerClosed after Shutdown
		close(done)
	}()
	return &target{
		base: "http://" + l.Addr().String(),
		stop: func() {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			hs.Shutdown(ctx) //nolint:errcheck // a timeout just closes the listener harder
			<-done
			srv.Close()
		},
	}, nil
}

// peakRSSMB is the peak resident set of whichever process runs the server.
func (t *target) peakRSSMB() float64 {
	if t.pid != 0 {
		return peakRSSMB(t.pid)
	}
	return selfPeakRSSMB()
}

// client is one closed-loop caller with a keep-alive connection of its own:
// it sends its next request only when the last one answered. (The tenant a
// request is charged to travels in its body.)
type client struct {
	hc   *http.Client
	base string
	tr   *tracer
}

func newClient(t *target, tr *tracer) *client {
	return &client{
		hc:   &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}, Timeout: 60 * time.Second},
		base: t.base,
		tr:   tr,
	}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends one request and reads the whole reply. opID travels in a header
// so that the in-process handler wrapper can tie its span to the client's.
func (c *client) do(method, path string, body []byte, parent int, opID int64) (status int, reply []byte, err error) {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	sp := c.tr.begin("http.roundtrip "+method+" "+routeOf(path), parent, opID)
	if sp >= 0 {
		req.Header.Set(spanHeader, strconv.Itoa(sp))
		req.Header.Set(opHeader, strconv.FormatInt(opID, 10))
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		c.tr.end(sp)
		return 0, nil, err
	}
	reply, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	c.tr.end(sp)
	return resp.StatusCode, reply, err
}

const (
	spanHeader = "X-Bench-Span"
	opHeader   = "X-Bench-Op"
)

// routeOf collapses a request path to its route, so span names stay few.
func routeOf(path string) string {
	switch {
	case strings.HasPrefix(path, "/v1/jobs/") && strings.HasSuffix(path, "/result"):
		return "/v1/jobs/{id}/result"
	case strings.HasPrefix(path, "/v1/jobs/"):
		return "/v1/jobs/{id}"
	case strings.HasPrefix(path, "/v1/graphs/") && strings.HasSuffix(path, "/edges"):
		return "/v1/graphs/{name}/edges"
	case strings.HasPrefix(path, "/v1/graphs/"):
		return "/v1/graphs/{name}"
	}
	return path
}

// postJSON marshals v, posts it and decodes a 2xx reply into out.
func (c *client) postJSON(method, path string, v, out any) error {
	body, err := json.Marshal(v)
	if err != nil {
		return err
	}
	status, reply, err := c.do(method, path, body, -1, 0)
	if err != nil {
		return err
	}
	if status/100 != 2 {
		return fmt.Errorf("%s %s: status %d: %s", method, path, status, bytes.TrimSpace(lastBytes(reply, 300)))
	}
	if out != nil {
		return json.Unmarshal(reply, out)
	}
	return nil
}

// dataDirIn makes a fresh store directory inside the scratch directory.
func dataDirIn(work string) (string, error) {
	return os.MkdirTemp(work, "data-")
}
