package store

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"path"
	"sort"
	"strconv"
	"strings"

	"repro/gbbs"
	"repro/internal/vfs"
)

// On-disk layout, rooted at Config.DataDir:
//
//	<data-dir>/<name>/snapshot-<version>.snap   checksummed base snapshot
//	<data-dir>/<name>/wal.log                   append-only batch log
//
// A snapshot file is a small checksummed store header (magic "GBBSSNP1",
// version, source spec, CRC32C) followed by the graph in the checked
// binary format GBBSBIN2 (gbbs.WriteBinary). Snapshots are written to a
// .tmp file, fsync'd, then renamed into place, so a crash never leaves a
// half-written file under the live name; compaction truncates the WAL
// only after the new snapshot's rename. Recovery loads the
// highest-versioned parseable snapshot and replays the WAL on top.

// ErrDegraded marks persistence failures: the graph remains readable at
// its last in-memory version but mutations are rejected until the daemon
// is restarted against healthy storage. Errors returned by Create and
// ApplyEdges wrap it when the cause was durability, so the serving layer
// can map exactly those to 503 + Retry-After.
var ErrDegraded = errors.New("store: graph persistence degraded (read-only)")

// snapMagic begins every snapshot file.
var snapMagic = [8]byte{'G', 'B', 'B', 'S', 'S', 'N', 'P', '1'}

const (
	walFileName    = "wal.log"
	snapPrefix     = "snapshot-"
	snapSuffix     = ".snap"
	tmpSuffix      = ".tmp"
	maxSnapSpecLen = 1 << 12
)

// entryPersist is one graph's durability state, present only when the
// store has a data directory. Fields are guarded by the owning entry's mu;
// the wal handle itself is only used under the entry's applyMu (and at
// Remove, which takes applyMu too).
type entryPersist struct {
	dir string
	wal *wal

	// durableVersion is the newest version guaranteed to survive a crash:
	// covered by the snapshot or an fsync'd WAL record.
	durableVersion uint64
	// degraded is the sticky first persistence failure; non-nil flips the
	// graph read-only.
	degraded error
	// recovery describes how the entry was reconstructed at boot, nil for
	// graphs created in this process lifetime.
	recovery *GraphRecovery
}

// GraphDurability is one graph's durability state, as surfaced on
// /healthz.
type GraphDurability struct {
	// Name is the graph's store key.
	Name string `json:"name"`
	// DurableVersion is the newest version guaranteed to survive a crash.
	DurableVersion uint64 `json:"durable_version"`
	// WALBytes is the current size of the graph's write-ahead log.
	WALBytes int64 `json:"wal_bytes"`
	// Degraded reports whether persistence failed and the graph is
	// read-only.
	Degraded bool `json:"degraded"`
	// DegradedReason is the first persistence failure, when Degraded.
	DegradedReason string `json:"degraded_reason,omitempty"`
	// Recovery carries boot-time recovery stats for graphs restored from
	// disk.
	Recovery *GraphRecovery `json:"recovery,omitempty"`
}

// Persistent reports whether the store was configured with a data
// directory and therefore persists graphs across restarts.
func (st *Store) Persistent() bool { return st.cfg.DataDir != "" }

// Durability returns per-graph durability state, sorted by name. Empty for
// in-memory stores.
func (st *Store) Durability() []GraphDurability {
	if !st.Persistent() {
		return nil
	}
	st.mu.RLock()
	entries := make([]*entry, 0, len(st.graphs))
	for _, e := range st.graphs {
		entries = append(entries, e)
	}
	st.mu.RUnlock()
	out := make([]GraphDurability, 0, len(entries))
	for _, e := range entries {
		e.mu.RLock()
		d := GraphDurability{Name: e.name}
		if p := e.pst; p != nil {
			d.DurableVersion = p.durableVersion
			if p.wal != nil {
				d.WALBytes = p.wal.bytes
			}
			if p.degraded != nil {
				d.Degraded = true
				d.DegradedReason = p.degraded.Error()
			}
			d.Recovery = p.recovery
		}
		e.mu.RUnlock()
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// graphDir is the directory holding one graph's snapshot and WAL.
func (st *Store) graphDir(name string) string { return path.Join(st.cfg.DataDir, name) }

// snapPath names the snapshot file for one version.
func snapPath(dir string, version uint64) string {
	return path.Join(dir, snapPrefix+strconv.FormatUint(version, 10)+snapSuffix)
}

// writeSnapshot persists one version atomically: header and checked CSR to
// a temp file, fsync, rename into the live name.
func writeSnapshot(fs vfs.FS, dir string, version uint64, spec string, g *gbbs.CSR) error {
	if len(spec) > maxSnapSpecLen {
		return fmt.Errorf("store: snapshot spec of %d bytes exceeds the limit %d", len(spec), maxSnapSpecLen)
	}
	final := snapPath(dir, version)
	tmp := final + tmpSuffix
	f, err := fs.Create(tmp)
	if err != nil {
		return fmt.Errorf("store: create snapshot %s: %w", tmp, err)
	}
	hdr := make([]byte, 8+8+4+len(spec))
	copy(hdr, snapMagic[:])
	binary.LittleEndian.PutUint64(hdr[8:], version)
	binary.LittleEndian.PutUint32(hdr[16:], uint32(len(spec)))
	copy(hdr[20:], spec)
	sum := crc32.Checksum(hdr[8:], walCRC)
	var crcBuf [4]byte
	binary.LittleEndian.PutUint32(crcBuf[:], sum)
	err = func() error {
		if _, err := f.Write(hdr); err != nil {
			return err
		}
		if _, err := f.Write(crcBuf[:]); err != nil {
			return err
		}
		if err := gbbs.WriteBinary(f, g); err != nil {
			return err
		}
		return f.Sync()
	}()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("store: write snapshot %s: %w", tmp, err)
	}
	if err := fs.Rename(tmp, final); err != nil {
		return fmt.Errorf("store: install snapshot %s: %w", final, err)
	}
	return nil
}

// readSnapshot loads and fully verifies one snapshot file, returning the
// version, spec, and graph it holds.
func readSnapshot(ctx context.Context, eng *gbbs.Engine, fs vfs.FS, name string) (uint64, string, *gbbs.CSR, error) {
	f, err := fs.Open(name)
	if err != nil {
		return 0, "", nil, fmt.Errorf("store: open snapshot %s: %w", name, err)
	}
	defer f.Close()
	var fixed [20]byte
	if _, err := io.ReadFull(f, fixed[:]); err != nil {
		return 0, "", nil, fmt.Errorf("store: truncated snapshot header in %s: %w", name, err)
	}
	if !bytes.Equal(fixed[0:8], snapMagic[:]) {
		return 0, "", nil, fmt.Errorf("store: bad snapshot magic %q in %s", fixed[0:8], name)
	}
	version := binary.LittleEndian.Uint64(fixed[8:])
	specLen := int(binary.LittleEndian.Uint32(fixed[16:]))
	if specLen > maxSnapSpecLen {
		return 0, "", nil, fmt.Errorf("store: snapshot %s declares a %d-byte spec, over the limit %d", name, specLen, maxSnapSpecLen)
	}
	rest := make([]byte, specLen+4)
	if _, err := io.ReadFull(f, rest); err != nil {
		return 0, "", nil, fmt.Errorf("store: truncated snapshot header in %s: %w", name, err)
	}
	sum := crc32.Checksum(fixed[8:], walCRC)
	sum = crc32.Update(sum, walCRC, rest[:specLen])
	if got := binary.LittleEndian.Uint32(rest[specLen:]); got != sum {
		return 0, "", nil, fmt.Errorf("store: snapshot header checksum mismatch in %s: stored %08x, computed %08x", name, got, sum)
	}
	spec := string(rest[:specLen])
	g, err := eng.ReadBinaryChecked(ctx, f)
	if err != nil {
		return 0, "", nil, fmt.Errorf("store: snapshot %s: %w", name, err)
	}
	return version, spec, g, nil
}

// snapVersionFromName parses the version out of a snapshot file name,
// reporting false for names that are not live snapshot files.
func snapVersionFromName(base string) (uint64, bool) {
	if !strings.HasPrefix(base, snapPrefix) || !strings.HasSuffix(base, snapSuffix) {
		return 0, false
	}
	v, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(base, snapPrefix), snapSuffix), 10, 64)
	return v, err == nil
}

// persistCreate sets up a graph's directory with its version-1 snapshot
// and an empty WAL, returning the entry's persistence state. Any failure
// is cleaned up best-effort and wrapped in ErrDegraded.
func (st *Store) persistCreate(name, spec string, g *gbbs.CSR) (*entryPersist, error) {
	fs := st.cfg.FS
	dir := st.graphDir(name)
	fail := func(err error) (*entryPersist, error) {
		fs.RemoveAll(dir)
		return nil, fmt.Errorf("store: persist create %s: %w: %w", name, ErrDegraded, err)
	}
	// A leftover directory (an unrecoverable graph from a previous life, or
	// debris from a failed create) is superseded: names are free once they
	// are not registered.
	if err := fs.RemoveAll(dir); err != nil {
		return fail(err)
	}
	if err := fs.MkdirAll(dir); err != nil {
		return fail(err)
	}
	if err := writeSnapshot(fs, dir, 1, spec, g); err != nil {
		return fail(err)
	}
	w, err := openWAL(fs, path.Join(dir, walFileName))
	if err != nil {
		return fail(err)
	}
	return &entryPersist{dir: dir, wal: w, durableVersion: 1}, nil
}

// persistApply makes one applied batch durable before it is acknowledged:
// append + fsync the WAL record, and, when the apply path compacted the
// overlay, install the compacted CSR as a fresh snapshot and empty the
// WAL. Called under the entry's applyMu with the batch that produced
// newVersion.
//
// A WAL failure means newVersion is NOT durable: the entry is flipped to
// degraded and an error wrapping ErrDegraded is returned — the caller must
// not install the version. A failure after the WAL record is durable
// (snapshot write, WAL truncate) also flips the entry degraded, but the
// batch itself survived, so the caller still installs and acknowledges;
// persistApply reports that case by returning nil.
func (e *entry) persistApply(newVersion uint64, batch *gbbs.UpdateBatch, compacted *gbbs.CSR, spec string, fs vfs.FS) error {
	p := e.pst
	rec, err := encodeWALRecord(newVersion, batch)
	if err == nil {
		err = p.wal.append(rec)
	}
	if err != nil {
		e.setDegraded(err)
		return fmt.Errorf("store: persist %s version %d: %w: %w", e.name, newVersion, ErrDegraded, err)
	}
	e.mu.Lock()
	p.durableVersion = newVersion
	e.mu.Unlock()
	if compacted == nil {
		return nil
	}
	// The batch is durable in the WAL; fold the compaction into a new
	// snapshot so the log can restart empty. Failures past this point
	// degrade the graph but do not lose the acknowledged version.
	if err := writeSnapshot(fs, p.dir, newVersion, spec, compacted); err != nil {
		e.setDegraded(err)
		return nil
	}
	if err := p.wal.reset(); err != nil {
		// The stale log is harmless for recovery (replay skips records at
		// or below the snapshot version) but appending to it after a failed
		// truncate risks interleaving with debris, so stop mutating.
		e.setDegraded(err)
		return nil
	}
	// Old snapshots are now unreferenced; removing them is tidiness, not
	// correctness, so errors are ignored.
	if ents, err := fs.ReadDir(p.dir); err == nil {
		for _, ent := range ents {
			if v, ok := snapVersionFromName(ent.Name); ok && v < newVersion {
				fs.Remove(path.Join(p.dir, ent.Name))
			}
			if strings.HasSuffix(ent.Name, tmpSuffix) {
				fs.Remove(path.Join(p.dir, ent.Name))
			}
		}
	}
	return nil
}

// setDegraded records the first persistence failure and flips the graph
// read-only.
func (e *entry) setDegraded(cause error) {
	e.mu.Lock()
	if e.pst.degraded == nil {
		e.pst.degraded = cause
	}
	e.mu.Unlock()
}

// degradedErr returns the sticky persistence failure, nil when healthy.
func (e *entry) degradedErr() error {
	if e.pst == nil {
		return nil
	}
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.pst.degraded
}
