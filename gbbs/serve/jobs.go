package serve

import (
	"container/list"
	"context"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"
)

// JobState names one stage of an async job's lifecycle. Jobs move
// queued → building → running → done|failed; cancellation (DELETE
// /v1/jobs/{id}) at any non-terminal stage ends in failed with a
// context.Canceled error. A job that joins an in-flight identical execution
// (same fingerprint) reports queued until the shared run publishes, then
// jumps straight to its terminal state.
type JobState string

// The async job lifecycle states.
const (
	// JobQueued: submitted, waiting for thread admission (or riding an
	// in-flight identical execution).
	JobQueued JobState = "queued"
	// JobBuilding: admitted; fetching or building the input graph.
	JobBuilding JobState = "building"
	// JobRunning: the algorithm is executing.
	JobRunning JobState = "running"
	// JobDone: finished successfully; the result is fetchable.
	JobDone JobState = "done"
	// JobFailed: finished with an error (validation, deadline, cancellation).
	JobFailed JobState = "failed"
)

// terminal reports whether the state is done or failed.
func (s JobState) terminal() bool { return s == JobDone || s == JobFailed }

// JobStatus is the wire form of one async job: the body of POST /v1/jobs,
// GET /v1/jobs/{id}, DELETE /v1/jobs/{id}, and the elements of GET /v1/jobs.
type JobStatus struct {
	// ID is the job's handle ("j-42"); poll GET /v1/jobs/{id} with it.
	ID string `json:"id"`
	// State is the job's current lifecycle state.
	State JobState `json:"state"`
	// Tenant is the tenant the job's admission is charged to.
	Tenant string `json:"tenant"`
	// Algorithm echoes the registry name the job dispatches.
	Algorithm string `json:"algorithm"`
	// Key is the request's canonical fingerprint (gbbs.Request.Key).
	// Duplicate submissions — same fingerprint, same include_value — join
	// this job until it fails.
	Key string `json:"key"`
	// QueuePosition is the job's 1-based position among its tenant's queued
	// jobs while queued; 0 once it has left the queue.
	QueuePosition int `json:"queue_position,omitempty"`
	// Error describes the failure of a failed job.
	Error string `json:"error,omitempty"`
	// SubmittedAt is when the job was accepted.
	SubmittedAt time.Time `json:"submitted_at"`
	// QueuedMS is the time spent waiting for admission, in milliseconds
	// (still accruing while queued).
	QueuedMS int64 `json:"queued_ms"`
	// RunMS is the time spent building and running, in milliseconds (still
	// accruing while building/running; 0 while queued).
	RunMS int64 `json:"run_ms"`
	// TotalMS is the time from submission to completion (or to now for a
	// live job), in milliseconds.
	TotalMS int64 `json:"total_ms"`
}

// JobsStats summarizes the job table for GET /healthz.
type JobsStats struct {
	// Active is the number of jobs not yet in a terminal state.
	Active int `json:"active"`
	// Retained is the number of finished jobs still held for result fetches
	// (evicted after the server's job TTL).
	Retained int `json:"retained"`
	// Submitted counts accepted submissions since the server started.
	Submitted int64 `json:"submitted"`
	// Joined counts submissions that joined an existing job by fingerprint.
	Joined int64 `json:"joined"`
	// Evicted counts finished jobs dropped by TTL or table-size retention.
	Evicted int64 `json:"evicted"`
}

// jobKey is what duplicate submissions join on: the run's fingerprint plus
// include_value. The value is not part of the fingerprint — both forms
// share one execution through the result cache — but a job's result is
// rendered for its submitter, so the two forms are distinct jobs.
type jobKey struct {
	fp           string
	includeValue bool
}

// job is one async run. Mutable fields are guarded by the owning jobTable's
// mutex; cancel and the immutable identity fields are set before the job is
// published.
type job struct {
	id     string
	seq    uint64
	key    jobKey
	tenant string
	algo   string
	cancel context.CancelFunc

	state     JobState
	err       error
	resp      RunResponse
	submitted time.Time
	started   time.Time // admission (left the queue)
	finished  time.Time
}

// jobTable is the server's bounded async-job registry: jobs by ID and by
// jobKey (so duplicate submissions join), with lazy TTL-based eviction
// of finished records. All sweeps run inline under the lock on the request
// paths — the table never owns a background goroutine.
type jobTable struct {
	ttl     time.Duration
	maxJobs int
	now     func() time.Time // injectable for tests

	mu        sync.Mutex
	nextSeq   uint64
	byID      map[string]*job
	byKey     map[jobKey]*job // live and done jobs; a failed job leaves
	order     list.List       // of *job, front = oldest submission
	active    int
	submitted int64
	joined    int64
	evicted   int64
}

// newJobTable returns a job table evicting finished jobs after ttl and
// holding at most maxJobs records.
func newJobTable(ttl time.Duration, maxJobs int) *jobTable {
	return &jobTable{
		ttl:     ttl,
		maxJobs: maxJobs,
		now:     time.Now,
		byID:    make(map[string]*job),
		byKey:   make(map[jobKey]*job),
	}
}

// jobIDPrefix prefixes every job ID; the numeric suffix is the submission
// sequence number, which is how lookup distinguishes an evicted job (410)
// from one that never existed (404).
const jobIDPrefix = "j-"

// sweepLocked evicts finished jobs past the TTL, then — if the table still
// exceeds maxJobs — the oldest finished jobs regardless of age. Active jobs
// are never evicted.
func (t *jobTable) sweepLocked() {
	cutoff := t.now().Add(-t.ttl)
	for e := t.order.Front(); e != nil; {
		next := e.Next()
		j := e.Value.(*job)
		expired := j.state.terminal() && j.finished.Before(cutoff)
		overCap := t.order.Len() > t.maxJobs && j.state.terminal()
		if expired || overCap {
			t.order.Remove(e)
			delete(t.byID, j.id)
			if t.byKey[j.key] == j {
				delete(t.byKey, j.key)
			}
			t.evicted++
		}
		e = next
	}
}

// submit registers a new job for the parsed request, or returns the
// existing job sharing its jobKey (joined == true). A nil job with a
// non-nil reject means the table is full of active jobs.
func (t *jobTable) submit(p *parsedRun, cancel context.CancelFunc) (j *job, joined bool, reject *requestError) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.sweepLocked()
	key := jobKey{p.fp, p.req.IncludeValue}
	if existing, ok := t.byKey[key]; ok {
		t.joined++
		return existing, true, nil
	}
	if t.active >= t.maxJobs {
		return nil, false, &requestError{
			status: http.StatusServiceUnavailable,
			msg:    "job table is full (" + strconv.Itoa(t.active) + " active jobs); retry later",
		}
	}
	t.nextSeq++
	j = &job{
		id:        jobIDPrefix + strconv.FormatUint(t.nextSeq, 10),
		seq:       t.nextSeq,
		key:       key,
		tenant:    p.tenant,
		algo:      p.algo.Name,
		cancel:    cancel,
		state:     JobQueued,
		submitted: t.now(),
	}
	t.byID[j.id] = j
	t.byKey[j.key] = j
	t.order.PushBack(j)
	t.active++
	t.submitted++
	return j, false, nil
}

// lookup resolves a job ID. A well-formed ID below the submission sequence
// that is no longer resident was evicted (410 Gone); anything else unknown
// is a 404.
func (t *jobTable) lookup(id string) (*job, *requestError) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.sweepLocked()
	if j, ok := t.byID[id]; ok {
		return j, nil
	}
	if seqStr, ok := strings.CutPrefix(id, jobIDPrefix); ok {
		if seq, err := strconv.ParseUint(seqStr, 10, 64); err == nil && seq >= 1 && seq <= t.nextSeq {
			return nil, &requestError{status: http.StatusGone, msg: "job " + id + " has been evicted (finished jobs are retained for " + t.ttl.String() + ")"}
		}
	}
	return nil, &requestError{status: http.StatusNotFound, msg: "unknown job " + id}
}

// setState advances a live job's state; transitions arriving after the job
// reached a terminal state are ignored (a canceled job stays failed even if
// the shared execution proceeds for other waiters).
func (t *jobTable) setState(j *job, s JobState) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if j.state.terminal() {
		return
	}
	if j.state == JobQueued && j.started.IsZero() {
		j.started = t.now()
	}
	j.state = s
}

// finish moves the job to its terminal state and publishes the response or
// error. A failed job releases its jobKey, as the result cache never keeps
// a failed run, so the next identical submission starts a new job instead
// of being handed the dead one.
func (t *jobTable) finish(j *job, resp RunResponse, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if j.state.terminal() {
		return
	}
	now := t.now()
	if j.started.IsZero() {
		j.started = now
	}
	j.finished = now
	if err != nil {
		j.state = JobFailed
		j.err = err
		if t.byKey[j.key] == j {
			delete(t.byKey, j.key)
		}
	} else {
		j.state = JobDone
		j.resp = resp
	}
	t.active--
}

// status renders a job's wire form; the queue position is computed against
// the tenant's other queued jobs at call time.
func (t *jobTable) status(j *job) JobStatus {
	t.mu.Lock()
	defer t.mu.Unlock()
	now := t.now()
	st := JobStatus{
		ID:          j.id,
		State:       j.state,
		Tenant:      j.tenant,
		Algorithm:   j.algo,
		Key:         j.key.fp,
		SubmittedAt: j.submitted,
	}
	switch {
	case j.state == JobQueued:
		st.QueuedMS = now.Sub(j.submitted).Milliseconds()
		pos := 1
		for e := t.order.Front(); e != nil; e = e.Next() {
			other := e.Value.(*job)
			if other.seq >= j.seq {
				break
			}
			if other.tenant == j.tenant && other.state == JobQueued {
				pos++
			}
		}
		st.QueuePosition = pos
	case j.state.terminal():
		st.QueuedMS = j.started.Sub(j.submitted).Milliseconds()
		st.RunMS = j.finished.Sub(j.started).Milliseconds()
	default: // building or running
		st.QueuedMS = j.started.Sub(j.submitted).Milliseconds()
		st.RunMS = now.Sub(j.started).Milliseconds()
	}
	end := now
	if j.state.terminal() {
		end = j.finished
	}
	st.TotalMS = end.Sub(j.submitted).Milliseconds()
	if j.err != nil {
		st.Error = j.err.Error()
	}
	return st
}

// list renders every resident job, oldest submission first, optionally
// filtered by tenant.
func (t *jobTable) list(tenant string) []JobStatus {
	t.mu.Lock()
	t.sweepLocked()
	jobs := make([]*job, 0, t.order.Len())
	for e := t.order.Front(); e != nil; e = e.Next() {
		if j := e.Value.(*job); tenant == "" || j.tenant == tenant {
			jobs = append(jobs, j)
		}
	}
	t.mu.Unlock()
	out := make([]JobStatus, len(jobs))
	for i, j := range jobs {
		out[i] = t.status(j)
	}
	return out
}

// stats snapshots the table's counters for /healthz.
func (t *jobTable) stats() JobsStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	return JobsStats{
		Active:    t.active,
		Retained:  t.order.Len() - t.active,
		Submitted: t.submitted,
		Joined:    t.joined,
		Evicted:   t.evicted,
	}
}

// handleJobSubmit implements POST /v1/jobs: validate and fingerprint the
// request exactly like /v1/run, then register a job and return its ID
// immediately — 202 for a fresh job, 200 when the submission joined an
// existing one. The runner goroutine then takes the same run step as
// /v1/run, detached from this HTTP request, bounded by the request's
// timeout (which covers queue wait, build and run, exactly as it does for
// the synchronous endpoint) and cancellable via DELETE /v1/jobs/{id}.
func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	p, err := s.readRun(w, r)
	if err != nil {
		writeErr(w, err)
		return
	}
	// The job's lifetime is the server's, not this HTTP request's: deadline
	// from the request's timeout, cancellation from DELETE or Server.Close.
	runCtx, timeoutCancel := context.WithTimeout(s.buildCtx, p.timeout)
	jobCtx, jobCancel := context.WithCancel(runCtx)
	j, joined, reject := s.jobs.submit(p, jobCancel)
	if joined || reject != nil {
		timeoutCancel()
		jobCancel()
		if reject != nil {
			writeErr(w, reject)
			return
		}
		writeJSON(w, http.StatusOK, s.jobs.status(j))
		return
	}
	p.progress = func(st JobState) { s.jobs.setState(j, st) }
	// The runner is the one goroutine an async job owns: it executes the
	// admitted run on a pooled engine (whose workers the scheduler accounts
	// for) and must outlive this handler — that is the entire point of the
	// async API. It is bounded by runCtx, so Server.Close reaps it.
	//gbbs:lint-allow nakedgo async job runner: detached from the submitting request by design, canceled via jobCtx/Server.Close
	go func() {
		defer timeoutCancel()
		defer jobCancel()
		resp, err := s.run(jobCtx, p)
		s.jobs.finish(j, resp, err)
	}()
	writeJSON(w, http.StatusAccepted, s.jobs.status(j))
}

// handleJobList implements GET /v1/jobs (optionally ?tenant=name).
func (s *Server) handleJobList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.jobs.list(r.URL.Query().Get("tenant")))
}

// handleJobGet implements GET /v1/jobs/{id}: the job's current status,
// queue position and elapsed times.
func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	j, rerr := s.jobs.lookup(r.PathValue("id"))
	if rerr != nil {
		writeErr(w, rerr)
		return
	}
	writeJSON(w, http.StatusOK, s.jobs.status(j))
}

// handleJobResult implements GET /v1/jobs/{id}/result: the finished run's
// outcome, written exactly as /v1/run writes it — the RunResponse, or the
// failed run's error with the same status and body. A job still in flight
// is a 409; an evicted job is a 410.
func (s *Server) handleJobResult(w http.ResponseWriter, r *http.Request) {
	j, rerr := s.jobs.lookup(r.PathValue("id"))
	if rerr != nil {
		writeErr(w, rerr)
		return
	}
	s.jobs.mu.Lock()
	state, resp, err := j.state, j.resp, j.err
	s.jobs.mu.Unlock()
	if !state.terminal() {
		writeError(w, http.StatusConflict, "job %s is not finished (state %s); poll GET /v1/jobs/%s", j.id, state, j.id)
		return
	}
	writeResult(w, j.algo, resp, j.key.includeValue, err)
}

// handleJobCancel implements DELETE /v1/jobs/{id}: cancel a queued or
// running job through the engine's context-cancellation path. A queued
// job's admission waiter is removed immediately (freeing its queue slot); a
// running job's engine observes the cancellation at its next poll. The
// response is the job's status at cancellation time — poll until failed to
// observe the cancellation land. Canceling a finished job is a no-op.
func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	j, rerr := s.jobs.lookup(r.PathValue("id"))
	if rerr != nil {
		writeErr(w, rerr)
		return
	}
	j.cancel()
	writeJSON(w, http.StatusOK, s.jobs.status(j))
}
