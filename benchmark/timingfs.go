package main

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/vfs"
)

// timingFS wraps the real filesystem behind the store's vfs.FS seam and
// counts what the persistence layer does to it: bytes written, fsyncs and
// how long each took. While a tracer is installed every fsync is also a
// span under the update handler that caused it.
type timingFS struct {
	vfs.FS
	tr     *atomic.Pointer[tracer]
	parent atomic.Int64 // span id of the update in flight, -1 when none

	written atomic.Int64
	syncs   atomic.Int64

	mu     sync.Mutex
	syncMS []float64
}

func newTimingFS(tr *atomic.Pointer[tracer]) *timingFS {
	fs := &timingFS{FS: vfs.OS(), tr: tr}
	fs.parent.Store(-1)
	return fs
}

func (fs *timingFS) Create(name string) (vfs.File, error) {
	f, err := fs.FS.Create(name)
	return fs.wrap(f), err
}

func (fs *timingFS) OpenAppend(name string) (vfs.File, error) {
	f, err := fs.FS.OpenAppend(name)
	return fs.wrap(f), err
}

func (fs *timingFS) wrap(f vfs.File) vfs.File {
	if f == nil {
		return nil
	}
	return &timedFile{File: f, fs: fs}
}

// syncTimes returns and clears the fsync durations recorded so far.
func (fs *timingFS) syncTimes() []float64 {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	out := fs.syncMS
	fs.syncMS = nil
	return out
}

type timedFile struct {
	vfs.File
	fs *timingFS
}

func (f *timedFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.fs.written.Add(int64(n))
	return n, err
}

func (f *timedFile) Sync() error {
	var t *tracer
	if f.fs.tr != nil {
		t = f.fs.tr.Load()
	}
	sp := t.begin("vfs.File.Sync", int(f.fs.parent.Load()), 0)
	start := time.Now()
	err := f.File.Sync()
	ms := float64(time.Since(start)) / 1e6
	t.end(sp)
	f.fs.syncs.Add(1)
	f.fs.mu.Lock()
	f.fs.syncMS = append(f.fs.syncMS, ms)
	f.fs.mu.Unlock()
	return err
}
