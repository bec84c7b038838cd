package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"testing"

	"repro/gbbs/store"
)

// fuzzServer lazily builds one shared Server for the decoder fuzz target:
// parseRunRequest only reads registry, store and config state, so a single
// instance serves every fuzz iteration without cross-talk.
var fuzzServer = sync.OnceValue(func() *Server {
	return New(Config{MaxThreads: 2, MaxSourceScale: 20})
})

// FuzzRunRequestDecode fuzzes the /v1/jobs (and /v1/run) request pipeline:
// strict JSON decoding followed by parseRunRequest validation. Invariants:
// no panics; exactly one of (parsed request, request error) is returned; a
// rejection carries an HTTP error status (4xx/5xx) and a non-empty message;
// an accepted request has a fingerprint, a resolved tenant and a positive
// thread count.
func FuzzRunRequestDecode(f *testing.F) {
	for _, seed := range []string{
		`{"algorithm":"cc","source":"rmat:8"}`,
		`{"algorithm":"bicc","source":"rmat:18","timeout_ms":120000,"tenant":"alpha"}`,
		`{"algorithm":"bfs","source":"rmat:8","src":5,"threads":2,"seed":42}`,
		`{"algorithm":"cc","graph":"mygraph"}`,
		`{"algorithm":"cc","source":"rmat:8","transforms":["sym","compress"]}`,
		`{"algorithm":"kcore","source":"rmat:8","opts":{"approx":true}}`,
		`{"algorithm":"cc","source":"rmat:8","include_value":true}`,
		`{}`,
		`{"algorithm":""}`,
		`{"algorithm":"nope","source":"rmat:8"}`,
		`{"algorithm":"cc"}`,
		`{"algorithm":"cc","source":"rmat:8","graph":"both"}`,
		`{"algorithm":"cc","source":"rmat:64"}`,
		`{"algorithm":"cc","source":"rmat:8","tenant":"no spaces"}`,
		`{"algorithm":"cc","source":"rmat:8","unknown_field":1}`,
		`{"algorithm":"cc","source":"rmat:8","threads":-1}`,
		`{"algorithm":"cc","source":"rmat:8","timeout_ms":-5}`,
		`{"algorithm":"cc","source":"rmat:8","opts":{"beta":1e308}}`,
		`not json`,
		`[]`,
		`null`,
		`{"algorithm":"cc","source":" "}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		if len(body) > maxRequestBytes {
			// The HTTP layer rejects oversized bodies with 413 before the
			// decoder runs; skip them here.
			return
		}
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		var req RunRequest
		if err := dec.Decode(&req); err != nil {
			return // decodeBody rejects these, and errorStatus makes that a 400
		}
		p, rerr := fuzzServer().parseRunRequest(req)
		if (p == nil) == (rerr == nil) {
			t.Fatalf("parseRunRequest(%s): want exactly one of result and error, got %v / %v", body, p, rerr)
		}
		if rerr != nil {
			if rerr.status < 400 || rerr.status > 599 {
				t.Fatalf("parseRunRequest(%s): rejection status %d outside 4xx/5xx", body, rerr.status)
			}
			if rerr.msg == "" {
				t.Fatalf("parseRunRequest(%s): rejection with empty message", body)
			}
			return
		}
		if p.fp == "" || p.tenant == "" || p.threads < 1 || p.timeout <= 0 {
			t.Fatalf("parseRunRequest(%s): accepted request underspecified: %+v", body, p)
		}
	})
}

// TestRunErrorStatusMapping pins the one status mapping every route writes
// errors through (wrapped errors included): a requestError keeps its own
// status, a degraded store → 503, an unknown graph → 404, a duplicate graph
// → 409, deadline expiry → 504, cancellation → 503, an oversize body → 413,
// everything else → 400.
func TestRunErrorStatusMapping(t *testing.T) {
	for _, tc := range []struct {
		err  error
		want int
	}{
		{&requestError{status: http.StatusGone, msg: "evicted"}, http.StatusGone},
		{fmt.Errorf("store: apply to g: %w: %w", store.ErrDegraded, errors.New("disk full")), http.StatusServiceUnavailable},
		{fmt.Errorf("store: %w %q", store.ErrNotFound, "g"), http.StatusNotFound},
		{fmt.Errorf("store: graph %q %w", "g", store.ErrExists), http.StatusConflict},
		{context.DeadlineExceeded, http.StatusGatewayTimeout},
		{fmt.Errorf("run: %w", context.DeadlineExceeded), http.StatusGatewayTimeout},
		{context.Canceled, http.StatusServiceUnavailable},
		{fmt.Errorf("run: %w", context.Canceled), http.StatusServiceUnavailable},
		{fmt.Errorf("decoding request body: %w", &http.MaxBytesError{Limit: 1 << 20}), http.StatusRequestEntityTooLarge},
		{errors.New("bad parameter"), http.StatusBadRequest},
	} {
		if got := errorStatus(tc.err); got != tc.want {
			t.Fatalf("errorStatus(%v) = %d, want %d", tc.err, got, tc.want)
		}
	}
}
