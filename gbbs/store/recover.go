package store

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"path"
	"sort"
	"strings"

	"repro/gbbs"
)

// RecoveryReport describes one boot-time Recover pass over the data
// directory.
type RecoveryReport struct {
	// Graphs holds one record per graph directory found, sorted by name.
	Graphs []GraphRecovery `json:"graphs"`
}

// GraphRecovery describes how one graph came back from disk.
type GraphRecovery struct {
	// Name is the graph's store key.
	Name string `json:"name"`
	// Version is the recovered live version (0 when recovery failed).
	Version uint64 `json:"version"`
	// SnapshotVersion is the version of the base snapshot that was loaded.
	SnapshotVersion uint64 `json:"snapshot_version"`
	// ReplayedBatches counts WAL records applied on top of the snapshot.
	ReplayedBatches int `json:"replayed_batches"`
	// DiscardedTailBytes is the size of the torn WAL tail truncated away —
	// the residue of a crash mid-append.
	DiscardedTailBytes int64 `json:"discarded_tail_bytes"`
	// Error is set when the graph could not be recovered; such a graph is
	// not registered (its files are left in place for inspection, and a
	// Create of the same name supersedes them).
	Error string `json:"error,omitempty"`
}

// Recover rebuilds the store from its data directory: for every graph, the
// highest-versioned parseable snapshot is loaded and the write-ahead log is
// replayed on top, discarding a torn tail record. Batch application is
// byte-deterministic, so the recovered graph is identical to a from-scratch
// build of the same batch prefix. Call it once at boot, before serving.
//
// A graph that cannot be recovered (no usable snapshot, corrupt WAL
// structure) is reported in the RecoveryReport but does not fail the boot;
// the returned error is reserved for an unusable data directory or context
// cancellation. On an in-memory store Recover is a no-op.
func (st *Store) Recover(ctx context.Context, eng *gbbs.Engine) (RecoveryReport, error) {
	var report RecoveryReport
	if !st.Persistent() {
		return report, nil
	}
	fs := st.cfg.FS
	if err := fs.MkdirAll(st.cfg.DataDir); err != nil {
		return report, fmt.Errorf("store: recover: data dir %s: %w", st.cfg.DataDir, err)
	}
	ents, err := fs.ReadDir(st.cfg.DataDir)
	if err != nil {
		return report, fmt.Errorf("store: recover: list %s: %w", st.cfg.DataDir, err)
	}
	for _, ent := range ents {
		if !ent.Dir || !validName(ent.Name) {
			continue
		}
		if err := ctx.Err(); err != nil {
			return report, fmt.Errorf("store: recover: %w", err)
		}
		e, rec, skip := st.recoverGraph(ctx, eng, ent.Name)
		if skip {
			continue
		}
		report.Graphs = append(report.Graphs, rec)
		if e == nil {
			continue
		}
		st.mu.Lock()
		if _, dup := st.graphs[ent.Name]; !dup {
			st.graphs[ent.Name] = e
		}
		st.mu.Unlock()
	}
	sort.Slice(report.Graphs, func(i, j int) bool { return report.Graphs[i].Name < report.Graphs[j].Name })
	return report, nil
}

// recoverGraph reconstructs one graph from its directory. A nil entry means
// the graph is unrecoverable; the reason is in the GraphRecovery. skip
// marks a debris directory — a create that crashed before anything was
// acknowledged — which is deleted and not reported.
func (st *Store) recoverGraph(ctx context.Context, eng *gbbs.Engine, name string) (*entry, GraphRecovery, bool) {
	fs := st.cfg.FS
	dir := st.graphDir(name)
	rec := GraphRecovery{Name: name}
	failed := func(err error) (*entry, GraphRecovery, bool) {
		rec.Error = err.Error()
		return nil, rec, false
	}

	ents, err := fs.ReadDir(dir)
	if err != nil {
		return failed(fmt.Errorf("list %s: %w", dir, err))
	}
	var versions []uint64
	walSeen := false
	for _, ent := range ents {
		if strings.HasSuffix(ent.Name, tmpSuffix) {
			// Debris from a snapshot write that never reached its rename.
			fs.Remove(path.Join(dir, ent.Name))
			continue
		}
		if ent.Name == walFileName {
			walSeen = true
		}
		if v, ok := snapVersionFromName(ent.Name); ok {
			versions = append(versions, v)
		}
	}
	if len(versions) == 0 {
		if !walSeen {
			// A create crashed before its snapshot rename: nothing was ever
			// acknowledged, so the directory is debris, not data loss.
			fs.RemoveAll(dir)
			return nil, rec, true
		}
		// A WAL with no snapshot should be impossible (the WAL is only
		// opened after the version-1 snapshot is installed); leave the
		// files for inspection and report the graph lost.
		return failed(fmt.Errorf("WAL present but no snapshot files in %s", dir))
	}
	// Highest version first; fall back to older snapshots if the newest is
	// damaged (e.g. a crash corrupted it after rename on real hardware).
	sort.Slice(versions, func(i, j int) bool { return versions[i] > versions[j] })
	var (
		base    *gbbs.CSR
		baseV   uint64
		spec    string
		snapErr error
	)
	for _, v := range versions {
		var sv uint64
		sv, spec, base, snapErr = readSnapshot(ctx, eng, fs, snapPath(dir, v))
		if snapErr == nil {
			if sv != v {
				snapErr = fmt.Errorf("snapshot %s claims version %d", snapPath(dir, v), sv)
				base = nil
				continue
			}
			baseV = v
			break
		}
		base = nil
	}
	if base == nil {
		return failed(fmt.Errorf("no usable snapshot: %w", snapErr))
	}
	rec.SnapshotVersion = baseV

	g, cur, err := st.replayWAL(ctx, eng, dir, base, baseV, &rec)
	if err != nil {
		return failed(err)
	}
	rec.Version = cur

	e := &entry{name: name, spec: spec, version: cur, snap: g}
	e.pst = &entryPersist{dir: dir, durableVersion: cur, recovery: &rec}
	w, err := openWAL(fs, path.Join(dir, walFileName))
	if err != nil {
		// Readable but not appendable: serve the recovered state read-only.
		e.pst.degraded = err
	} else {
		e.pst.wal = w
	}
	return e, rec, false
}

// replayWAL applies the graph's logged batches on top of its base snapshot,
// stopping at (and truncating) a torn tail. Records at or below the
// snapshot version are a legal stale prefix — a crash between a compaction
// snapshot's rename and the WAL truncate leaves them — and are skipped.
func (st *Store) replayWAL(ctx context.Context, eng *gbbs.Engine, dir string, base *gbbs.CSR, baseV uint64, rec *GraphRecovery) (gbbs.Graph, uint64, error) {
	fs := st.cfg.FS
	walPath := path.Join(dir, walFileName)
	var data []byte
	if _, serr := fs.Size(walPath); serr == nil {
		// The WAL exists; failing to read it now would silently drop
		// acknowledged batches, so it is a recovery error, not a no-op.
		f, err := fs.Open(walPath)
		if err != nil {
			return nil, 0, fmt.Errorf("open WAL %s: %w", walPath, err)
		}
		data, err = io.ReadAll(f)
		f.Close()
		if err != nil {
			return nil, 0, fmt.Errorf("read WAL %s: %w", walPath, err)
		}
	}

	var g gbbs.Graph = base
	cur := baseV
	off := 0
	replayed := false
	for {
		if len(data)-off < 8 {
			break // short frame header: torn tail (or clean end at off == len)
		}
		length := int(binary.LittleEndian.Uint32(data[off:]))
		sum := binary.LittleEndian.Uint32(data[off+4:])
		if length > len(data)-off-8 {
			break // frame claims more bytes than the file holds: torn tail
		}
		payload := data[off+8 : off+8+length]
		if crc32.Checksum(payload, walCRC) != sum {
			break // checksum mismatch: torn or bit-flipped tail
		}
		version, batch, err := decodeWALRecord(payload)
		if err != nil {
			break // valid checksum but undecodable: treat as tail
		}
		if version <= cur {
			if replayed {
				break // stale record after a replayed one: not a legal prefix
			}
			off += 8 + length
			continue
		}
		if version != cur+1 {
			break // version gap: everything past it is unreachable
		}
		next, added, err := eng.ApplyEdges(ctx, g, batch)
		if err != nil {
			return nil, 0, fmt.Errorf("replay batch for version %d: %w", version, err)
		}
		if added == 0 {
			return nil, 0, fmt.Errorf("replayed batch for version %d added no edges: log disagrees with snapshot", version)
		}
		compacted, err := st.compactIfDue(ctx, eng, next)
		if err != nil {
			return nil, 0, fmt.Errorf("compact during replay of version %d: %w", version, err)
		}
		if compacted != nil {
			next = compacted
		}
		g = next
		cur = version
		replayed = true
		rec.ReplayedBatches++
		off += 8 + length
	}
	if off < len(data) {
		rec.DiscardedTailBytes = int64(len(data) - off)
		if err := fs.Truncate(walPath, int64(off)); err != nil {
			return nil, 0, fmt.Errorf("truncate torn WAL tail of %s: %w", walPath, err)
		}
	}
	return g, cur, nil
}
