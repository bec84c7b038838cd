// Package store holds named, versioned graphs for the serving layer: each
// graph is an immutable snapshot chain — a base CSR plus a delta overlay of
// batched edge insertions — with a monotonically increasing version that
// changes exactly when the edge set does. Updates never disturb readers: a
// request that picked up version N keeps running on N while version N+1 is
// built and installed, and the overlay is compacted into a fresh CSR in the
// background of the update path once the delta grows past a configurable
// fraction of the base.
//
// Alongside each graph the store carries incremental-connectivity state
// (see gbbs.CCState): the canonical labelling of some earlier version plus
// the log of batches applied since, which lets the "incrcc" algorithm
// answer connectivity on the live version in time proportional to the
// insertions instead of the graph.
package store

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/gbbs"
	"repro/internal/vfs"
)

// ErrNotFound marks an operation on a graph name the store does not hold;
// ApplyEdges wraps it.
var ErrNotFound = errors.New("unknown graph")

// ErrExists marks a Create of a name already in use; Create wraps it.
var ErrExists = errors.New("already exists")

// Config tunes a Store; the zero value selects the defaults.
type Config struct {
	// CompactFraction triggers compaction of a snapshot's delta overlay
	// into a fresh base CSR once delta edges exceed this fraction of base
	// edges. 0 selects the default 0.25; negative disables compaction.
	CompactFraction float64
	// MaxLogEdges caps the total edges held in a graph's insertion log for
	// incremental connectivity. When an update would exceed it, the log and
	// the saved labelling are dropped — the next incrcc run recomputes from
	// the full graph and re-seeds the state. 0 selects the default 1<<22.
	MaxLogEdges int
	// DataDir, when nonempty, makes the store persistent: every graph is
	// durably recorded under this directory as a checksummed snapshot plus
	// a write-ahead log of applied batches, and Recover rebuilds the store
	// from it at boot. Empty keeps the store purely in-memory.
	DataDir string
	// FS is the filesystem the persistence layer runs on; nil selects the
	// real one (vfs.OS). Tests inject fault-modeling filesystems here.
	// Ignored when DataDir is empty.
	FS vfs.FS
}

// withDefaults resolves zero Config fields to their documented defaults.
func (c Config) withDefaults() Config {
	if c.CompactFraction == 0 {
		c.CompactFraction = 0.25
	}
	if c.MaxLogEdges == 0 {
		c.MaxLogEdges = 1 << 22
	}
	if c.DataDir != "" && c.FS == nil {
		c.FS = vfs.OS()
	}
	return c
}

// Store is a concurrency-safe collection of named, versioned graphs. The
// zero value is not usable; construct with New.
type Store struct {
	cfg Config

	mu     sync.RWMutex
	graphs map[string]*entry
}

// entry is one named graph. Snapshot state (snap, version, cc, log) is
// guarded by mu; applyMu additionally serializes updates so the heavy work
// of building a new snapshot runs outside mu and readers are never blocked
// behind it.
type entry struct {
	applyMu sync.Mutex

	mu      sync.RWMutex
	name    string
	spec    string
	version uint64
	snap    gbbs.Graph

	// cc is the canonical connectivity labelling at version ccVersion (nil
	// when none has been saved); log holds the batches applied after
	// ccVersion, oldest first, with logEdges their total length.
	cc        []uint32
	ccVersion uint64
	log       []loggedBatch
	logEdges  int

	// pst is the graph's durability state, nil for in-memory stores. Its
	// fields are guarded by mu; the WAL handle inside is only touched under
	// applyMu.
	pst *entryPersist
}

// loggedBatch records one applied batch and the version it produced.
type loggedBatch struct {
	version uint64
	batch   *gbbs.UpdateBatch
}

// Snapshot is an immutable view of one graph version. The Graph may be read
// concurrently and stays valid after newer versions are installed.
type Snapshot struct {
	// Name is the graph's store key.
	Name string
	// Version counts applied updates: 1 for a freshly created graph,
	// incremented by every batch that inserts at least one edge.
	Version uint64
	// Graph is the snapshot's graph (a *gbbs.CSR or *gbbs.Overlay).
	Graph gbbs.Graph
	// Spec is the canonical source spec the graph was created from, kept
	// for listings; versions past 1 no longer correspond to it exactly.
	Spec string
}

// ID returns the snapshot's canonical identity for request fingerprinting,
// e.g. "store(name=wiki,version=3)". Store names are validated at Create
// time so the spelling is unambiguous, and a version bump changes the ID —
// and therefore every result-cache key derived from it.
func (s Snapshot) ID() string {
	return fmt.Sprintf("store(name=%s,version=%d)", s.Name, s.Version)
}

// Info describes one stored graph for listings.
type Info struct {
	// Name is the graph's store key.
	Name string `json:"name"`
	// Version is the current version number.
	Version uint64 `json:"version"`
	// Spec is the source spec the graph was created from.
	Spec string `json:"spec"`
	// N is the current vertex count.
	N int `json:"n"`
	// M is the current stored-directed-edge count.
	M int `json:"m"`
	// DeltaEdges is the size of the uncompacted delta overlay (0 right
	// after creation or compaction).
	DeltaEdges int `json:"delta_edges"`
	// Weighted reports whether edges carry weights.
	Weighted bool `json:"weighted"`
	// Symmetric reports whether the graph is stored symmetrically.
	Symmetric bool `json:"symmetric"`
}

// New creates an empty Store with the given configuration.
func New(cfg Config) *Store {
	return &Store{cfg: cfg.withDefaults(), graphs: make(map[string]*entry)}
}

// validName reports whether name is usable as a store key: nonempty, and
// limited to letters, digits, '.', '_' and '-' so names embed unambiguously
// in snapshot IDs, cache keys and URL paths.
func validName(name string) bool {
	if name == "" || len(name) > 128 {
		return false
	}
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '.', r == '_', r == '-':
		default:
			return false
		}
	}
	return true
}

// Create registers g under name at version 1 and returns its snapshot. The
// graph must be a *gbbs.CSR (the canonical base representation); spec
// records where it came from. Creating an existing name is an error —
// remove it first, versions are not reused. On a persistent store the
// version-1 snapshot is durable on disk before Create returns; a
// persistence failure (wrapping ErrDegraded) registers nothing.
func (st *Store) Create(name string, g *gbbs.CSR, spec string) (Snapshot, error) {
	if !validName(name) {
		return Snapshot{}, fmt.Errorf("store: invalid graph name %q (need [A-Za-z0-9._-]+)", name)
	}
	if g == nil {
		return Snapshot{}, fmt.Errorf("store: create %s: nil graph", name)
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if _, dup := st.graphs[name]; dup {
		return Snapshot{}, fmt.Errorf("store: graph %q %w", name, ErrExists)
	}
	e := &entry{name: name, spec: spec, version: 1, snap: g}
	if st.Persistent() {
		// Written under st.mu so a concurrent Create of the same name can
		// never interleave on the same directory; creation is a rare
		// administrative operation, so briefly blocking lookups is fine.
		pst, err := st.persistCreate(name, spec, g)
		if err != nil {
			return Snapshot{}, err
		}
		e.pst = pst
	}
	st.graphs[name] = e
	return Snapshot{Name: name, Version: 1, Graph: g, Spec: spec}, nil
}

// lookup returns the entry for name.
func (st *Store) lookup(name string) (*entry, bool) {
	st.mu.RLock()
	defer st.mu.RUnlock()
	e, ok := st.graphs[name]
	return e, ok
}

// Get returns the current snapshot of the named graph.
func (st *Store) Get(name string) (Snapshot, bool) {
	e, ok := st.lookup(name)
	if !ok {
		return Snapshot{}, false
	}
	e.mu.RLock()
	defer e.mu.RUnlock()
	return Snapshot{Name: e.name, Version: e.version, Graph: e.snap, Spec: e.spec}, true
}

// List describes every stored graph, sorted by name.
func (st *Store) List() []Info {
	st.mu.RLock()
	entries := make([]*entry, 0, len(st.graphs))
	for _, e := range st.graphs {
		entries = append(entries, e)
	}
	st.mu.RUnlock()
	out := make([]Info, 0, len(entries))
	for _, e := range entries {
		e.mu.RLock()
		info := Info{
			Name: e.name, Version: e.version, Spec: e.spec,
			N: e.snap.N(), M: e.snap.M(),
			Weighted: e.snap.Weighted(), Symmetric: e.snap.Symmetric(),
		}
		if ov, ok := e.snap.(*gbbs.Overlay); ok {
			info.DeltaEdges = ov.DeltaM()
		}
		e.mu.RUnlock()
		out = append(out, info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Remove deletes the named graph, reporting whether it existed. In-flight
// runs holding its snapshots are unaffected. On a persistent store the
// graph's on-disk state is deleted best-effort: if the filesystem refuses,
// the files linger and a later Create of the same name supersedes them.
func (st *Store) Remove(name string) bool {
	st.mu.Lock()
	e, ok := st.graphs[name]
	delete(st.graphs, name)
	st.mu.Unlock()
	if ok && e.pst != nil {
		e.applyMu.Lock()
		if e.pst.wal != nil {
			e.pst.wal.close()
		}
		st.cfg.FS.RemoveAll(e.pst.dir)
		e.applyMu.Unlock()
	}
	return ok
}

// ApplyEdges inserts a batch into the named graph on eng's scheduler and
// returns the resulting snapshot plus the number of directed edges actually
// added. A batch that adds nothing (all self-loops or already-present
// edges) leaves the version unchanged; otherwise the version is bumped and
// the batch is appended to the incremental-connectivity log. The delta
// overlay is compacted here, inside the update path, once it exceeds the
// configured fraction of the base — readers always see either the old or
// the new complete snapshot, never an intermediate.
//
// Updates to one graph are serialized; updates to different graphs and all
// reads proceed concurrently.
func (st *Store) ApplyEdges(ctx context.Context, eng *gbbs.Engine, name string, batch *gbbs.UpdateBatch) (Snapshot, int, error) {
	e, ok := st.lookup(name)
	if !ok {
		return Snapshot{}, 0, fmt.Errorf("store: %w %q", ErrNotFound, name)
	}
	e.applyMu.Lock()
	defer e.applyMu.Unlock()

	if derr := e.degradedErr(); derr != nil {
		return Snapshot{}, 0, fmt.Errorf("store: apply to %s: %w: %w", name, ErrDegraded, derr)
	}

	e.mu.RLock()
	cur := e.snap
	curVersion := e.version
	e.mu.RUnlock()

	// Heavy work outside e.mu: readers keep serving curVersion.
	next, added, err := eng.ApplyEdges(ctx, cur, batch)
	if err != nil {
		return Snapshot{}, 0, fmt.Errorf("store: apply to %s: %w", name, err)
	}
	if added == 0 {
		return Snapshot{Name: name, Version: curVersion, Graph: cur, Spec: e.spec}, 0, nil
	}
	compacted, err := st.compactIfDue(ctx, eng, next)
	if err != nil {
		return Snapshot{}, 0, fmt.Errorf("store: compact %s: %w", name, err)
	}
	if compacted != nil {
		next = compacted
	}

	// Durability before acknowledgement: the batch's WAL record must be
	// fsync'd before the new version becomes visible. A WAL failure leaves
	// the old version installed and the graph degraded.
	if e.pst != nil {
		if perr := e.persistApply(curVersion+1, batch, compacted, e.spec, st.cfg.FS); perr != nil {
			return Snapshot{}, 0, perr
		}
	}

	e.mu.Lock()
	e.snap = next
	e.version = curVersion + 1
	if e.logEdges+batch.Len() > st.cfg.MaxLogEdges {
		// The log outgrew its budget: drop the incremental state rather
		// than hold unbounded batches. The next incrcc run rebuilds.
		e.cc, e.ccVersion, e.log, e.logEdges = nil, 0, nil, 0
	} else {
		e.log = append(e.log, loggedBatch{version: e.version, batch: batch})
		e.logEdges += batch.Len()
	}
	snap := Snapshot{Name: e.name, Version: e.version, Graph: e.snap, Spec: e.spec}
	e.mu.Unlock()
	return snap, added, nil
}

// compactIfDue compacts next when it is an overlay whose delta exceeds the
// configured fraction of its base, returning the compacted CSR, or nil when
// no compaction is due. The update path and WAL replay both call it, so a
// replayed graph compacts at exactly the versions the live one did.
func (st *Store) compactIfDue(ctx context.Context, eng *gbbs.Engine, next gbbs.Graph) (*gbbs.CSR, error) {
	ov, isOverlay := next.(*gbbs.Overlay)
	if !isOverlay || st.cfg.CompactFraction <= 0 ||
		float64(ov.DeltaM()) <= st.cfg.CompactFraction*float64(ov.Base().M()) {
		return nil, nil
	}
	return eng.Compact(ctx, ov)
}

// CCState returns the incremental-connectivity state to attach to an
// "incrcc" run against the given snapshot version: the last saved labelling
// plus the batches applied since, or nil when no state reaches that version
// (first run, state dropped, or labels newer than the snapshot).
func (st *Store) CCState(name string, version uint64) *gbbs.CCState {
	e, ok := st.lookup(name)
	if !ok {
		return nil
	}
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.cc == nil || e.ccVersion > version {
		return nil
	}
	// The retained log must bridge every version in (ccVersion, version].
	// Log versions are consecutive (one entry per version bump), so it
	// suffices that the log starts at or before ccVersion+1 — unless the
	// labelling is already current.
	if e.ccVersion < version && (len(e.log) == 0 || e.log[0].version > e.ccVersion+1) {
		return nil
	}
	state := &gbbs.CCState{Labels: e.cc}
	for _, lb := range e.log {
		if lb.version > e.ccVersion && lb.version <= version {
			state.Batches = append(state.Batches, lb.batch)
		}
	}
	return state
}

// SaveCC records the canonical connectivity labelling of the named graph at
// the given version, making later incrcc runs incremental. Log entries the
// labelling covers are trimmed. Stale saves — older than what is already
// recorded, or for a removed graph — are ignored; a save for a version
// newer than any retained log prefix still applies, since labellings are
// canonical per version regardless of how they were computed.
func (st *Store) SaveCC(name string, version uint64, labels []uint32) {
	e, ok := st.lookup(name)
	if !ok {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.cc != nil && e.ccVersion >= version {
		return
	}
	// The labelling must describe a version the log can bridge from:
	// either the current version or one still covered by retained batches.
	if version > e.version {
		return
	}
	e.cc = labels
	e.ccVersion = version
	trimmed := e.log[:0]
	edges := 0
	for _, lb := range e.log {
		if lb.version > version {
			trimmed = append(trimmed, lb)
			edges += lb.batch.Len()
		}
	}
	e.log = trimmed
	e.logEdges = edges
}
