package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http/httptest"
	"os"
	"os/exec"
	"strings"
	"testing"

	"repro/gbbs/serve"
)

// asMainEnv makes the test binary run main instead of the tests, so each
// case drives the real command line in a child process.
const asMainEnv = "GBBS_RUN_TEST_AS_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(asMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// gbbsRun runs the command line args and returns its stdout, stderr and
// exit status.
func gbbsRun(t *testing.T, args ...string) (string, string, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), asMainEnv+"=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case err == nil:
		return stdout.String(), stderr.String(), 0
	case errors.As(err, &exit):
		return stdout.String(), stderr.String(), exit.ExitCode()
	default:
		t.Fatalf("gbbs-run %v: %v", args, err)
		return "", "", 0
	}
}

// summaryOf decodes the algorithm and result summary from a JSON report:
// the local -json object and a daemon's RunResponse share both fields.
func summaryOf(t *testing.T, out string) (string, string) {
	t.Helper()
	var r struct {
		Algorithm string `json:"algorithm"`
		Result    struct {
			Summary string `json:"summary"`
		} `json:"result"`
	}
	if err := json.Unmarshal([]byte(out), &r); err != nil {
		t.Fatalf("decoding %q: %v", out, err)
	}
	return r.Algorithm, r.Result.Summary
}

// TestLocalAndServerRunAgree pins that the flags describe one input in
// both modes: the same command line run in process and on a daemon
// reports the same result.
func TestLocalAndServerRunAgree(t *testing.T) {
	srv := serve.New(serve.Config{MaxThreads: 2})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	args := []string{"-algo", "cc", "-source", "rmat:8", "-transform", "sym", "-json"}
	local, stderr, code := gbbsRun(t, args...)
	if code != 0 {
		t.Fatalf("local run: exit %d: %s", code, stderr)
	}
	remote, stderr, code := gbbsRun(t, append(args, "-server", ts.URL)...)
	if code != 0 {
		t.Fatalf("server run: exit %d: %s", code, stderr)
	}
	la, ls := summaryOf(t, local)
	ra, rs := summaryOf(t, remote)
	if la != "cc" || ls == "" || la != ra || ls != rs {
		t.Fatalf("local %s %q, server %s %q", la, ls, ra, rs)
	}
}

func TestRejectedCommandLines(t *testing.T) {
	cases := []struct {
		name string
		args []string
		code int    // 2 for a command-line mistake, 1 for a failed run
		want string // substring of stderr
	}{
		{"legacy input flag", []string{"-algo", "cc", "-gen", "rmat"}, 2, "-gen"},
		{"update on a daemon", []string{"-algo", "cc", "-source", "rmat:8", "-server", "http://127.0.0.1:1", "-update", "0-1"}, 2, "-update"},
		{"async without a daemon", []string{"-algo", "cc", "-source", "rmat:8", "-async"}, 2, "-server"},
		{"unweighted input to wbfs", []string{"-algo", "wbfs", "-source", "rmat:8", "-transform", "sym"}, 1, "paperweights"},
	}
	for _, c := range cases {
		_, stderr, code := gbbsRun(t, c.args...)
		if code != c.code || !strings.Contains(stderr, c.want) {
			t.Errorf("%s: exit %d, stderr %q (want exit %d mentioning %q)", c.name, code, stderr, c.code, c.want)
		}
	}
}
