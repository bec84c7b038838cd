package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// newJobTestServer starts an httptest server with small limits around an
// internal *Server so tests can reach the job table and fake its clock.
func newJobTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

// submitJob posts body to /v1/jobs and returns the decoded status and HTTP
// status code.
func submitJob(t *testing.T, ts *httptest.Server, body string) (JobStatus, int) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var st JobStatus
	if resp.StatusCode == http.StatusAccepted || resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(data, &st); err != nil {
			t.Fatalf("decoding %q: %v", data, err)
		}
	}
	return st, resp.StatusCode
}

// getJobStatus polls GET /v1/jobs/{id}.
func getJobStatus(t *testing.T, ts *httptest.Server, id string) (JobStatus, int) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st JobStatus
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
	}
	return st, resp.StatusCode
}

// deleteJob issues DELETE /v1/jobs/{id}.
func deleteJob(t *testing.T, ts *httptest.Server, id string) (JobStatus, int) {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+id, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st JobStatus
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
	}
	return st, resp.StatusCode
}

// pollUntil polls the job every 10ms until pred accepts its status or the
// deadline passes, returning the last status observed and recording every
// distinct state seen in order.
func pollUntil(t *testing.T, ts *httptest.Server, id string, deadline time.Duration, pred func(JobStatus) bool) (JobStatus, []JobState) {
	t.Helper()
	var seen []JobState
	var last JobStatus
	end := time.Now().Add(deadline)
	for time.Now().Before(end) {
		st, code := getJobStatus(t, ts, id)
		if code != http.StatusOK {
			t.Fatalf("poll %s: status %d", id, code)
		}
		if len(seen) == 0 || seen[len(seen)-1] != st.State {
			seen = append(seen, st.State)
		}
		last = st
		if pred(st) {
			return st, seen
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job %s did not reach the expected state within %v; last = %+v (states %v)", id, deadline, last, seen)
	return last, seen
}

func TestJobHappyPath(t *testing.T) {
	_, ts := newJobTestServer(t, Config{MaxThreads: 2})
	st, code := submitJob(t, ts, `{"algorithm":"cc","source":"rmat:8","transforms":["sym"],"include_value":false}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit status = %d, want 202", code)
	}
	if !strings.HasPrefix(st.ID, jobIDPrefix) || st.State == "" || st.Key == "" {
		t.Fatalf("submit response = %+v", st)
	}
	if st.Tenant != DefaultTenant {
		t.Fatalf("tenant = %q, want %q", st.Tenant, DefaultTenant)
	}
	final, _ := pollUntil(t, ts, st.ID, 10*time.Second, func(s JobStatus) bool { return s.State.terminal() })
	if final.State != JobDone || final.Error != "" {
		t.Fatalf("final = %+v, want done", final)
	}
	resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result status = %d", resp.StatusCode)
	}
	var run RunResponse
	if err := json.NewDecoder(resp.Body).Decode(&run); err != nil {
		t.Fatal(err)
	}
	if run.Algorithm != "cc" || run.Key != st.Key || run.Graph.N == 0 {
		t.Fatalf("result = %+v", run)
	}
	if run.Result.Value != nil {
		t.Fatal("include_value=false submission must strip Result.Value from the job result")
	}

	// The completed job fed the result cache: the identical synchronous
	// request must answer from it without executing.
	body := bytes.NewReader([]byte(`{"algorithm":"cc","source":"rmat:8","transforms":["sym"]}`))
	sresp, err := http.Post(ts.URL+"/v1/run", "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	var sync RunResponse
	if err := json.NewDecoder(sresp.Body).Decode(&sync); err != nil {
		t.Fatal(err)
	}
	if sync.ResultCache != "hit" {
		t.Fatalf("sync run after job: result_cache = %q, want hit", sync.ResultCache)
	}
}

// TestJobLongRunObservableAndCancelable: a long run (bicc on rmat:18) is
// accepted without waiting for it — the submit response is non-terminal —
// is then observed building or running, and DELETE cancels it within one
// poll interval. It asserts states, not wall-clock bounds, so it holds
// under the race detector and on a loaded host.
func TestJobLongRunObservableAndCancelable(t *testing.T) {
	_, ts := newJobTestServer(t, Config{MaxThreads: 2})
	st, code := submitJob(t, ts, `{"algorithm":"bicc","source":"rmat:18","transforms":["sym"],"timeout_ms":120000}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit status = %d, want 202", code)
	}
	if st.State.terminal() {
		t.Fatalf("submit response is terminal: %+v", st)
	}
	// Watch the job leave the queue: building rmat:18 takes long enough that
	// polling observes a non-terminal post-queue state.
	mid, seen := pollUntil(t, ts, st.ID, 30*time.Second, func(s JobStatus) bool {
		return s.State == JobBuilding || s.State == JobRunning || s.State.terminal()
	})
	if mid.State.terminal() {
		t.Fatalf("job finished before it could be observed mid-flight: %+v (states %v)", mid, seen)
	}
	if _, code := deleteJob(t, ts, st.ID); code != http.StatusOK {
		t.Fatalf("cancel status = %d", code)
	}
	// One poll interval (10ms) plus scheduling slack: the engine observes
	// the cancellation at its next chunk boundary.
	canceled, _ := pollUntil(t, ts, st.ID, 5*time.Second, func(s JobStatus) bool { return s.State.terminal() })
	if canceled.State != JobFailed || !strings.Contains(canceled.Error, context.Canceled.Error()) {
		t.Fatalf("after cancel: %+v, want failed with context.Canceled", canceled)
	}
}

func TestJobDuplicateSubmissionJoins(t *testing.T) {
	_, ts := newJobTestServer(t, Config{MaxThreads: 2})
	body := `{"algorithm":"bicc","source":"rmat:17","transforms":["sym"],"timeout_ms":120000}`
	first, code := submitJob(t, ts, body)
	if code != http.StatusAccepted {
		t.Fatalf("first submit status = %d, want 202", code)
	}
	second, code := submitJob(t, ts, body)
	if code != http.StatusOK {
		t.Fatalf("duplicate submit status = %d, want 200 (joined)", code)
	}
	if second.ID != first.ID {
		t.Fatalf("duplicate submission got job %s, want to join %s", second.ID, first.ID)
	}
	var h HealthResponse
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Jobs.Joined != 1 || h.Jobs.Submitted != 1 {
		t.Fatalf("job stats = %+v, want submitted=1 joined=1", h.Jobs)
	}
	deleteJob(t, ts, first.ID)
}

func TestJobCancelWhileQueuedFreesSlot(t *testing.T) {
	_, ts := newJobTestServer(t, Config{MaxThreads: 1})
	// Fill the single thread with a long job, then queue a second.
	hog, code := submitJob(t, ts, `{"algorithm":"bicc","source":"rmat:17","transforms":["sym"],"threads":1,"timeout_ms":120000}`)
	if code != http.StatusAccepted {
		t.Fatalf("hog submit = %d", code)
	}
	queued, code := submitJob(t, ts, `{"algorithm":"cc","source":"rmat:8","transforms":["sym"],"threads":1,"timeout_ms":120000}`)
	if code != http.StatusAccepted {
		t.Fatalf("queued submit = %d", code)
	}
	st, _ := getJobStatus(t, ts, queued.ID)
	if st.State != JobQueued || st.QueuePosition != 1 {
		t.Fatalf("second job = %+v, want queued at position 1", st)
	}
	// Cancel the queued job: its admission waiter must be removed without a
	// Release, and the job must fail with context.Canceled.
	if _, code := deleteJob(t, ts, queued.ID); code != http.StatusOK {
		t.Fatalf("cancel = %d", code)
	}
	canceled, _ := pollUntil(t, ts, queued.ID, 5*time.Second, func(s JobStatus) bool { return s.State.terminal() })
	if canceled.State != JobFailed || !strings.Contains(canceled.Error, context.Canceled.Error()) {
		t.Fatalf("canceled queued job = %+v", canceled)
	}
	// The freed slot must still admit new work once the hog is canceled too
	// (the re-admission path: the departing waiter re-ran the admission scan).
	deleteJob(t, ts, hog.ID)
	pollUntil(t, ts, hog.ID, 5*time.Second, func(s JobStatus) bool { return s.State.terminal() })
	third, code := submitJob(t, ts, `{"algorithm":"bfs","source":"rmat:8","threads":1}`)
	if code != http.StatusAccepted {
		t.Fatalf("third submit = %d", code)
	}
	final, _ := pollUntil(t, ts, third.ID, 10*time.Second, func(s JobStatus) bool { return s.State.terminal() })
	if final.State != JobDone {
		t.Fatalf("third job = %+v, want done (slot leaked?)", final)
	}
}

func TestJobResultAfterTTLIsGone(t *testing.T) {
	s, ts := newJobTestServer(t, Config{MaxThreads: 2, JobTTL: time.Minute})
	base := time.Unix(5000, 0)
	s.jobs.mu.Lock()
	s.jobs.now = func() time.Time { return base }
	s.jobs.mu.Unlock()
	st, code := submitJob(t, ts, `{"algorithm":"cc","source":"rmat:8","transforms":["sym"]}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d", code)
	}
	pollUntil(t, ts, st.ID, 10*time.Second, func(s JobStatus) bool { return s.State.terminal() })
	// Advance the fake clock past the TTL; the next request path sweeps.
	s.jobs.mu.Lock()
	s.jobs.now = func() time.Time { return base.Add(2 * time.Minute) }
	s.jobs.mu.Unlock()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusGone {
		t.Fatalf("post-TTL result status = %d, want 410", resp.StatusCode)
	}
	if _, code := getJobStatus(t, ts, st.ID); code != http.StatusGone {
		t.Fatalf("post-TTL poll status = %d, want 410", code)
	}
	if _, code := getJobStatus(t, ts, "j-999999"); code != http.StatusNotFound {
		t.Fatalf("never-issued ID status = %d, want 404", code)
	}
	if _, code := getJobStatus(t, ts, "nonsense"); code != http.StatusNotFound {
		t.Fatalf("malformed ID status = %d, want 404", code)
	}
}

func TestJobResultWhileRunningConflicts(t *testing.T) {
	_, ts := newJobTestServer(t, Config{MaxThreads: 2})
	st, code := submitJob(t, ts, `{"algorithm":"bicc","source":"rmat:17","transforms":["sym"],"timeout_ms":120000}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d", code)
	}
	resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("in-flight result status = %d, want 409", resp.StatusCode)
	}
	deleteJob(t, ts, st.ID)
}

func TestJobFailedReplaysError(t *testing.T) {
	_, ts := newJobTestServer(t, Config{MaxThreads: 2})
	// wbfs requires a weighted graph; an unweighted source fails in Run.
	st, code := submitJob(t, ts, `{"algorithm":"wbfs","source":"rmat:8"}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d", code)
	}
	final, _ := pollUntil(t, ts, st.ID, 10*time.Second, func(s JobStatus) bool { return s.State.terminal() })
	if final.State != JobFailed || final.Error == "" {
		t.Fatalf("final = %+v, want failed", final)
	}
	resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("failed-job result status = %d, want 400 (same mapping as /v1/run)", resp.StatusCode)
	}
}

func TestJobTableFullRejects(t *testing.T) {
	_, ts := newJobTestServer(t, Config{MaxThreads: 1, MaxJobs: 1})
	hog, code := submitJob(t, ts, `{"algorithm":"bicc","source":"rmat:17","transforms":["sym"],"timeout_ms":120000}`)
	if code != http.StatusAccepted {
		t.Fatalf("first submit = %d", code)
	}
	if _, code := submitJob(t, ts, `{"algorithm":"cc","source":"rmat:8","transforms":["sym"]}`); code != http.StatusServiceUnavailable {
		t.Fatalf("submit beyond MaxJobs = %d, want 503", code)
	}
	deleteJob(t, ts, hog.ID)
}

func TestJobListFiltersByTenant(t *testing.T) {
	_, ts := newJobTestServer(t, Config{MaxThreads: 2})
	a, _ := submitJob(t, ts, `{"algorithm":"cc","source":"rmat:8","transforms":["sym"],"tenant":"alpha"}`)
	b, _ := submitJob(t, ts, `{"algorithm":"bfs","source":"rmat:8","tenant":"beta"}`)
	pollUntil(t, ts, a.ID, 10*time.Second, func(s JobStatus) bool { return s.State.terminal() })
	pollUntil(t, ts, b.ID, 10*time.Second, func(s JobStatus) bool { return s.State.terminal() })
	resp, err := http.Get(ts.URL + "/v1/jobs?tenant=alpha")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var jobs []JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&jobs); err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 1 || jobs[0].ID != a.ID || jobs[0].Tenant != "alpha" {
		t.Fatalf("filtered list = %+v, want only %s", jobs, a.ID)
	}
}

func TestJobRejectsBadTenant(t *testing.T) {
	_, ts := newJobTestServer(t, Config{MaxThreads: 2})
	if _, code := submitJob(t, ts, `{"algorithm":"cc","source":"rmat:8","transforms":["sym"],"tenant":"no spaces"}`); code != http.StatusBadRequest {
		t.Fatalf("bad tenant submit = %d, want 400", code)
	}
	if _, code := submitJob(t, ts, `{"algorithm":"cc","source":"rmat:8","transforms":["sym"],"tenant":"`+strings.Repeat("x", 65)+`"}`); code != http.StatusBadRequest {
		t.Fatalf("oversized tenant submit = %d, want 400", code)
	}
}

// getJobResult fetches GET /v1/jobs/{id}/result, returning the HTTP status
// and the raw body.
func getJobResult(t *testing.T, ts *httptest.Server, id string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// TestJobFailedReleasesFingerprint: a canceled job lands in failed, and an
// identical resubmission then starts a new job that runs to done instead of
// joining the dead one.
func TestJobFailedReleasesFingerprint(t *testing.T) {
	_, ts := newJobTestServer(t, Config{MaxThreads: 1})
	hog, code := submitJob(t, ts, `{"algorithm":"bicc","source":"rmat:17","transforms":["sym"],"threads":1,"timeout_ms":120000}`)
	if code != http.StatusAccepted {
		t.Fatalf("hog submit = %d", code)
	}
	body := `{"algorithm":"cc","source":"rmat:8","transforms":["sym"],"threads":1}`
	first, code := submitJob(t, ts, body)
	if code != http.StatusAccepted {
		t.Fatalf("first submit = %d", code)
	}
	deleteJob(t, ts, first.ID)
	if st, _ := pollUntil(t, ts, first.ID, 5*time.Second, func(s JobStatus) bool { return s.State.terminal() }); st.State != JobFailed {
		t.Fatalf("canceled job = %+v, want failed", st)
	}
	deleteJob(t, ts, hog.ID)
	pollUntil(t, ts, hog.ID, 5*time.Second, func(s JobStatus) bool { return s.State.terminal() })

	second, code := submitJob(t, ts, body)
	if code != http.StatusAccepted || second.ID == first.ID {
		t.Fatalf("resubmit after failure = %d %+v, want 202 with a new ID (not %s)", code, second, first.ID)
	}
	if st, _ := pollUntil(t, ts, second.ID, 10*time.Second, func(s JobStatus) bool { return s.State.terminal() }); st.State != JobDone {
		t.Fatalf("resubmitted job = %+v, want done", st)
	}
}

// TestJobJoinRespectsIncludeValue: submissions differing only in
// include_value are distinct jobs, each rendering its own result, sharing
// one execution through the result cache; an identical submission joins.
func TestJobJoinRespectsIncludeValue(t *testing.T) {
	s, ts := newJobTestServer(t, Config{MaxThreads: 2})
	bare, code := submitJob(t, ts, `{"algorithm":"cc","source":"rmat:8","transforms":["sym"]}`)
	if code != http.StatusAccepted {
		t.Fatalf("bare submit = %d", code)
	}
	withValue, code := submitJob(t, ts, `{"algorithm":"cc","source":"rmat:8","transforms":["sym"],"include_value":true}`)
	if code != http.StatusAccepted || withValue.ID == bare.ID {
		t.Fatalf("include_value submit = %d %+v, want 202 with a new ID (not %s)", code, withValue, bare.ID)
	}
	if withValue.Key != bare.Key {
		t.Fatalf("keys differ: %q vs %q; include_value is not part of the fingerprint", withValue.Key, bare.Key)
	}
	if again, code := submitJob(t, ts, `{"algorithm":"cc","source":"rmat:8","transforms":["sym"],"include_value":true}`); code != http.StatusOK || again.ID != withValue.ID {
		t.Fatalf("identical submit = %d %s, want 200 joining %s", code, again.ID, withValue.ID)
	}
	for _, c := range []struct {
		id        string
		wantValue bool
	}{{bare.ID, false}, {withValue.ID, true}} {
		pollUntil(t, ts, c.id, 10*time.Second, func(s JobStatus) bool { return s.State.terminal() })
		code, body := getJobResult(t, ts, c.id)
		var run RunResponse
		if code != http.StatusOK || json.Unmarshal(body, &run) != nil {
			t.Fatalf("result %s = %d %s", c.id, code, body)
		}
		if (run.Result.Value != nil) != c.wantValue {
			t.Fatalf("result %s value present = %v, want %v", c.id, run.Result.Value != nil, c.wantValue)
		}
	}
	if st := s.results.Stats(); st.Misses != 1 {
		t.Fatalf("result cache misses = %d, want one shared execution", st.Misses)
	}
}

// TestJobResultReportsResultCache: a job reports result_cache like /v1/run
// — hit (with cache hit) for a fingerprint /v1/run already answered, miss
// for one it executed.
func TestJobResultReportsResultCache(t *testing.T) {
	_, ts := newJobTestServer(t, Config{MaxThreads: 2})
	body := `{"algorithm":"cc","source":"rmat:8","transforms":["sym"]}`
	sresp, err := http.Post(ts.URL+"/v1/run", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	sresp.Body.Close()
	if sresp.StatusCode != http.StatusOK {
		t.Fatalf("sync run = %d", sresp.StatusCode)
	}
	for _, c := range []struct{ body, resultCache, cache string }{
		{body, "hit", "hit"},
		{`{"algorithm":"cc","source":"rmat:8","transforms":["sym"],"seed":7}`, "miss", "hit"},
	} {
		st, code := submitJob(t, ts, c.body)
		if code != http.StatusAccepted {
			t.Fatalf("submit %s = %d", c.body, code)
		}
		pollUntil(t, ts, st.ID, 10*time.Second, func(s JobStatus) bool { return s.State.terminal() })
		code, raw := getJobResult(t, ts, st.ID)
		var run RunResponse
		if code != http.StatusOK || json.Unmarshal(raw, &run) != nil {
			t.Fatalf("result %s = %d %s", st.ID, code, raw)
		}
		if run.ResultCache != c.resultCache || run.Cache != c.cache {
			t.Fatalf("%s: result_cache/cache = %q/%q, want %q/%q", c.body, run.ResultCache, run.Cache, c.resultCache, c.cache)
		}
	}
}

// TestRunAndJobResultShareErrorMapping: the same failing request (wbfs on
// an unweighted source) answers with the same status and the same body
// through /v1/run and through the job result replay.
func TestRunAndJobResultShareErrorMapping(t *testing.T) {
	_, ts := newJobTestServer(t, Config{MaxThreads: 2})
	body := `{"algorithm":"wbfs","source":"rmat:8"}`
	sresp, err := http.Post(ts.URL+"/v1/run", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	syncBody, err := io.ReadAll(sresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	st, code := submitJob(t, ts, body)
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d", code)
	}
	pollUntil(t, ts, st.ID, 10*time.Second, func(s JobStatus) bool { return s.State.terminal() })
	jobCode, jobBody := getJobResult(t, ts, st.ID)
	if sresp.StatusCode != http.StatusBadRequest || jobCode != sresp.StatusCode || !bytes.Equal(jobBody, syncBody) {
		t.Fatalf("/v1/run = %d %s; job result = %d %s; want the same 400 and body", sresp.StatusCode, syncBody, jobCode, jobBody)
	}
}
