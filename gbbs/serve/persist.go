package serve

import (
	"context"
	"time"

	"repro/gbbs/store"
)

// This file is the serving face of the store's persistence layer: boot-time
// recovery (RecoverGraphs) and shutdown draining (Drain). The state machine
// is the store's; see gbbs/store and ARCHITECTURE.md, "Durability &
// recovery".

// RecoverGraphs loads every persisted graph from the server's data
// directory: snapshot plus write-ahead-log replay, exactly as described on
// store.Recover. Call it once at boot, before serving traffic, when the
// server was configured with a DataDir; without one it is a no-op. The
// replay runs on a pooled engine sized like the update path's.
func (s *Server) RecoverGraphs(ctx context.Context) (store.RecoveryReport, error) {
	if !s.store.Persistent() {
		return store.RecoveryReport{}, nil
	}
	eng := s.engines.Get(s.threads)
	defer s.engines.Put(eng)
	return s.store.Recover(ctx, eng)
}

// Drain waits for the async job table to quiesce: it returns once no job
// is active, or with ctx's error at the drain deadline. The HTTP listener
// should already be shut down (so no new jobs arrive); synchronous requests
// are drained by http.Server.Shutdown itself. Durability needs no extra
// flushing here — every acknowledged mutation was fsync'd before its
// response was sent — so draining is purely about letting admitted work
// finish instead of killing it mid-run.
func (s *Server) Drain(ctx context.Context) error {
	ticker := time.NewTicker(25 * time.Millisecond)
	defer ticker.Stop()
	for {
		if s.jobs.stats().Active == 0 {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-ticker.C:
		}
	}
}
