// Package dfs implements the distributed file system substrate that the
// MapReduce engine and the ReStore repository store data in. It plays the
// role HDFS plays for Hadoop: a flat namespace of immutable files grouped
// into directories, where a "dataset" is a directory of part files
// written by the tasks of a job.
//
// The implementation is an in-memory store with the metadata ReStore
// needs: per-dataset modification versions (repository eviction Rule 4
// evicts entries whose inputs were deleted or modified — versions are
// tracked at dataset granularity, where a dataset is the directory
// holding a job's part files), per-dataset byte accounting (the storage
// manager's budget enforcement and the janitor's orphan sweep read
// dataset sizes in O(datasets), never O(files)), and global byte meters
// that feed the cluster cost model.
package dfs

import (
	"bytes"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// FS is an in-memory distributed file system. All methods are safe for
// concurrent use.
type FS struct {
	mu      sync.RWMutex
	files   map[string]*file
	version map[string]int64 // per top-level dataset path
	// datasets holds the live byte and file totals of every dataset,
	// maintained on write, delete and rename, so size queries and the
	// storage manager's budget accounting iterate datasets instead of
	// files.
	datasets map[string]*dsInfo
	nextVer  int64

	// The byte meters are atomics, not mu-guarded fields, so the read
	// path (Open/ReadFile) can meter under the shared read lock instead
	// of serializing every concurrent reader against writers.
	bytesRead    atomic.Int64
	bytesWritten atomic.Int64

	// writeFault, when non-nil, intercepts every file commit (the Close
	// of a Create, WriteFile, and the WriteFileIf CAS path): it may
	// truncate the committed bytes and/or return an error, simulating a
	// crash that tears a write mid-flight. Test-only; see SetWriteFault.
	writeFault func(path string, data []byte) ([]byte, error)
}

type file struct {
	data []byte
}

// dsInfo is the live accounting of one dataset.
type dsInfo struct {
	bytes int64
	files int
}

// New returns an empty file system.
func New() *FS {
	return &FS{
		files:    make(map[string]*file),
		version:  make(map[string]int64),
		datasets: make(map[string]*dsInfo),
	}
}

// clean normalizes a path: no leading slash, no trailing slash.
func clean(path string) string {
	path = strings.TrimPrefix(path, "/")
	path = strings.TrimSuffix(path, "/")
	return path
}

// datasetOf returns the dataset (top-level directory) a path belongs to.
// "pigmix/page_views/part-00000" → "pigmix/page_views" when the path has
// a part file component, else the path itself.
func datasetOf(path string) string {
	path = clean(path)
	if i := strings.LastIndex(path, "/"); i >= 0 {
		last := path[i+1:]
		if strings.HasPrefix(last, "part-") {
			return path[:i]
		}
	}
	return path
}

// Create opens a new file for writing, truncating any existing file at
// the path. Close commits the file and bumps its dataset version.
func (fs *FS) Create(path string) io.WriteCloser {
	return &fileWriter{fs: fs, path: clean(path)}
}

type fileWriter struct {
	fs   *FS
	path string
	buf  bytes.Buffer
}

func (w *fileWriter) Write(p []byte) (int, error) { return w.buf.Write(p) }

func (w *fileWriter) Close() error {
	w.fs.mu.Lock()
	defer w.fs.mu.Unlock()
	data := append([]byte(nil), w.buf.Bytes()...)
	var faultErr error
	if w.fs.writeFault != nil {
		data, faultErr = w.fs.writeFault(w.path, data)
		if faultErr != nil && data == nil {
			return faultErr // crash before any byte hit the disk
		}
	}
	if old, ok := w.fs.files[w.path]; ok {
		w.fs.accountLocked(w.path, -int64(len(old.data)), -1)
	}
	w.fs.files[w.path] = &file{data: data}
	w.fs.bytesWritten.Add(int64(len(data)))
	w.fs.accountLocked(w.path, int64(len(data)), 1)
	w.fs.bumpLocked(datasetOf(w.path))
	return faultErr
}

// SetWriteFault installs (or, with nil, removes) a commit interceptor
// for crash-injection tests: every file commit passes its bytes through
// fn, which may truncate them (returning a prefix simulates a torn
// write: the prefix is committed and the error surfaces to the writer)
// or drop them entirely (nil bytes plus an error: nothing hits the
// disk). Production code never sets it.
func (fs *FS) SetWriteFault(fn func(path string, data []byte) ([]byte, error)) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.writeFault = fn
}

func (fs *FS) bumpLocked(dataset string) {
	fs.nextVer++
	fs.version[dataset] = fs.nextVer
}

// accountLocked adjusts the byte and file accounting of the dataset
// containing path (mu held). A dataset whose last file is removed is
// dropped from the accounting so Datasets reports only live data.
func (fs *FS) accountLocked(path string, bytes int64, files int) {
	ds := datasetOf(path)
	info := fs.datasets[ds]
	if info == nil {
		info = &dsInfo{}
		fs.datasets[ds] = info
	}
	info.bytes += bytes
	info.files += files
	if info.files <= 0 {
		delete(fs.datasets, ds)
	}
}

// WriteFile writes data to path in one call.
func (fs *FS) WriteFile(path string, data []byte) error {
	w := fs.Create(path)
	if _, err := w.Write(data); err != nil {
		return err
	}
	return w.Close()
}

// Open returns a reader over the file at path. Reads take the shared
// lock only: file data is immutable once committed (commits replace the
// *file value), and the byte meter is atomic.
func (fs *FS) Open(path string) (io.Reader, error) {
	fs.mu.RLock()
	f, ok := fs.files[clean(path)]
	fs.mu.RUnlock()
	if !ok {
		return nil, &PathError{Op: "open", Path: path, Err: ErrNotExist}
	}
	fs.bytesRead.Add(int64(len(f.data)))
	return bytes.NewReader(f.data), nil
}

// ReadFile returns the contents of the file at path.
func (fs *FS) ReadFile(path string) ([]byte, error) {
	fs.mu.RLock()
	f, ok := fs.files[clean(path)]
	fs.mu.RUnlock()
	if !ok {
		return nil, &PathError{Op: "read", Path: path, Err: ErrNotExist}
	}
	fs.bytesRead.Add(int64(len(f.data)))
	return append([]byte(nil), f.data...), nil
}

// Exists reports whether path names a file or a directory prefix. The
// check runs against the dataset accounting, not the file table: one
// map lookup for the common cases (a file, or a dataset holding part
// files — the repository validates stored outputs on every match), and
// a prefix scan proportional to datasets, not files, otherwise.
func (fs *FS) Exists(path string) bool {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	p := clean(path)
	if _, ok := fs.files[p]; ok {
		return true
	}
	if _, ok := fs.datasets[p]; ok {
		return true
	}
	prefix := p + "/"
	for name := range fs.datasets {
		if strings.HasPrefix(name, prefix) {
			return true
		}
	}
	return false
}

// List returns the file paths under the directory path, sorted. A file's
// own path lists as itself; the empty path lists everything.
func (fs *FS) List(path string) []string {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	p := clean(path)
	var out []string
	if p == "" {
		for name := range fs.files {
			out = append(out, name)
		}
		sort.Strings(out)
		return out
	}
	if _, ok := fs.files[p]; ok {
		out = append(out, p)
	}
	prefix := p + "/"
	for name := range fs.files {
		if strings.HasPrefix(name, prefix) {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// Size returns the total bytes stored under path (file or directory).
// Dataset and directory totals come from the per-dataset accounting, so
// the cost is proportional to the number of datasets, not files.
func (fs *FS) Size(path string) int64 {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	p := clean(path)
	var n int64
	if info, ok := fs.datasets[p]; ok {
		n += info.bytes
	} else if f, ok := fs.files[p]; ok {
		// p names a part file inside a dataset, not a dataset itself.
		n += int64(len(f.data))
	}
	prefix := p + "/"
	for name, info := range fs.datasets {
		if strings.HasPrefix(name, prefix) {
			n += info.bytes
		}
	}
	return n
}

// Stat returns the bytes stored under path together with the
// modification version of path's dataset, in one lock acquisition.
// leaf reports whether path itself names a single dataset or file — the
// way the engine materializes stored outputs — as opposed to a prefix
// grouping several datasets; a leaf's version covers every byte counted,
// so callers may cache the size keyed by the version, while a prefix's
// nested datasets version independently and must be re-sized.
func (fs *FS) Stat(path string) (bytes int64, version int64, leaf bool) {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	p := clean(path)
	version = fs.version[datasetOf(p)]
	if info, ok := fs.datasets[p]; ok {
		return info.bytes, version, true
	}
	if f, ok := fs.files[p]; ok {
		// p names a part file inside a dataset, not a dataset itself.
		return int64(len(f.data)), version, true
	}
	prefix := p + "/"
	for name, info := range fs.datasets {
		if strings.HasPrefix(name, prefix) {
			bytes += info.bytes
		}
	}
	return bytes, version, false
}

// FileStats returns the per-file sizes under path, sorted by path. A
// file's own path reports itself; a directory reports every file under
// it.
func (fs *FS) FileStats(path string) []FileStat {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	p := clean(path)
	var out []FileStat
	if f, ok := fs.files[p]; ok {
		out = append(out, FileStat{Path: p, Size: int64(len(f.data))})
	}
	prefix := p + "/"
	for name, f := range fs.files {
		if strings.HasPrefix(name, prefix) {
			out = append(out, FileStat{Path: name, Size: int64(len(f.data))})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out
}

// Datasets returns the dataset paths holding data under prefix, sorted;
// the empty prefix lists every dataset. A dataset is the directory
// grouping a job's part files (or a standalone file's own path).
func (fs *FS) Datasets(prefix string) []string {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	p := clean(prefix)
	var out []string
	for name := range fs.datasets {
		if p == "" || name == p || strings.HasPrefix(name, p+"/") {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// Delete removes the file or directory tree at path. Deleting bumps the
// dataset version so repository entries that depend on it invalidate.
func (fs *FS) Delete(path string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	p := clean(path)
	found := false
	if f, ok := fs.files[p]; ok {
		fs.accountLocked(p, -int64(len(f.data)), -1)
		delete(fs.files, p)
		found = true
	}
	prefix := p + "/"
	for name, f := range fs.files {
		if strings.HasPrefix(name, prefix) {
			fs.accountLocked(name, -int64(len(f.data)), -1)
			delete(fs.files, name)
			found = true
		}
	}
	if !found {
		return &PathError{Op: "delete", Path: path, Err: ErrNotExist}
	}
	fs.bumpLocked(datasetOf(p))
	return nil
}

// Rename atomically moves the file or dataset tree at oldPath to
// newPath, replacing whatever was stored there — the whole swap happens
// under one lock, so readers see either the old dataset or the new one,
// never a mixture. This is the commit step of per-query output staging:
// a query writes its STORE output under a private temp namespace and
// renames it into place, so concurrent writers of one user path cannot
// interleave part files. Every dataset the rename touches has its
// version bumped inside the critical section: the source and
// destination roots, every nested dataset moved out of the source tree,
// the destination dataset each of those lands in, and every destination
// dataset clobbered by the replacement — so Stat/Version/Valid see
// moved and overwritten outputs as modified, not stale or brand-new at
// version zero. The returned version is the destination dataset's new
// one, captured inside the same critical section so the caller can bind
// metadata to exactly this commit even when another writer renames over
// the path immediately after.
func (fs *FS) Rename(oldPath, newPath string) (int64, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	op, np := clean(oldPath), clean(newPath)
	// touched collects every dataset whose contents this rename changes.
	touched := map[string]bool{datasetOf(op): true, datasetOf(np): true}
	moved := map[string][]byte{}
	if f, ok := fs.files[op]; ok {
		moved[np] = f.data
		fs.accountLocked(op, -int64(len(f.data)), -1)
		delete(fs.files, op)
	}
	prefix := op + "/"
	for name, f := range fs.files {
		if strings.HasPrefix(name, prefix) {
			dst := np + "/" + name[len(prefix):]
			moved[dst] = f.data
			touched[datasetOf(name)] = true
			touched[datasetOf(dst)] = true
			fs.accountLocked(name, -int64(len(f.data)), -1)
			delete(fs.files, name)
		}
	}
	if len(moved) == 0 {
		return 0, &PathError{Op: "rename", Path: oldPath, Err: ErrNotExist}
	}
	if f, ok := fs.files[np]; ok {
		fs.accountLocked(np, -int64(len(f.data)), -1)
		delete(fs.files, np)
	}
	nprefix := np + "/"
	for name, f := range fs.files {
		if strings.HasPrefix(name, nprefix) {
			touched[datasetOf(name)] = true
			fs.accountLocked(name, -int64(len(f.data)), -1)
			delete(fs.files, name)
		}
	}
	for name, data := range moved {
		fs.files[name] = &file{data: data}
		fs.accountLocked(name, int64(len(data)), 1)
	}
	for ds := range touched {
		fs.bumpLocked(ds)
	}
	return fs.version[datasetOf(np)], nil
}

// WriteFileIf writes data to path only if the version of path's dataset
// still equals expect — the version the caller last observed (zero for a
// dataset never touched; note that deletes bump versions, so "absent"
// does not imply version zero: observe via Stat or Version first). The
// read-check-write is one critical section, making it the
// compare-and-swap primitive the durable repository's log appends and
// the cross-process lease records are built on. It returns the
// dataset's new version and whether the write was applied; on a lost
// race nothing is written.
//
// A write fault (SetWriteFault) intercepts the CAS commit exactly like
// any other commit: a dropped write leaves the slot untouched (version
// unchanged), a torn write commits the prefix and bumps the version but
// reports ok=false — the caller's bytes were not acknowledged, yet a
// later reader can observe the garbage, which is what a real mid-write
// crash leaves behind.
func (fs *FS) WriteFileIf(path string, data []byte, expect int64) (int64, bool) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	p := clean(path)
	ds := datasetOf(p)
	if fs.version[ds] != expect {
		return fs.version[ds], false
	}
	torn := false
	if fs.writeFault != nil {
		faulted, faultErr := fs.writeFault(p, append([]byte(nil), data...))
		if faultErr != nil {
			if faulted == nil {
				return fs.version[ds], false // dropped: nothing hit the disk
			}
			data, torn = faulted, true
		}
	}
	if old, ok := fs.files[p]; ok {
		fs.accountLocked(p, -int64(len(old.data)), -1)
	}
	fs.files[p] = &file{data: append([]byte(nil), data...)}
	fs.bytesWritten.Add(int64(len(data)))
	fs.accountLocked(p, int64(len(data)), 1)
	fs.bumpLocked(ds)
	return fs.version[ds], !torn
}

// RemoveFileIf deletes the file at path only if its dataset version
// still equals expect, reporting whether the delete was applied. It is
// the conditional-release half of the lease protocol: a holder whose
// lease expired and was taken over observes a newer version and must
// not clobber the new holder's record.
func (fs *FS) RemoveFileIf(path string, expect int64) bool {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	p := clean(path)
	ds := datasetOf(p)
	if fs.version[ds] != expect {
		return false
	}
	f, ok := fs.files[p]
	if !ok {
		return false
	}
	fs.accountLocked(p, -int64(len(f.data)), -1)
	delete(fs.files, p)
	fs.bumpLocked(ds)
	return true
}

// Version returns the modification version of the dataset containing
// path. Zero means the dataset has never been written.
func (fs *FS) Version(path string) int64 {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	return fs.version[datasetOf(path)]
}

// BytesRead returns the cumulative bytes read through the FS.
func (fs *FS) BytesRead() int64 { return fs.bytesRead.Load() }

// BytesWritten returns the cumulative bytes written through the FS.
func (fs *FS) BytesWritten() int64 { return fs.bytesWritten.Load() }

// TotalBytes returns the total bytes currently stored.
func (fs *FS) TotalBytes() int64 {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	var n int64
	for _, info := range fs.datasets {
		n += info.bytes
	}
	return n
}

// ErrNotExist reports a missing path.
var ErrNotExist = fmt.Errorf("file does not exist")

// PathError records an error, the operation, and the path that caused it.
type PathError struct {
	Op   string
	Path string
	Err  error
}

func (e *PathError) Error() string { return "dfs: " + e.Op + " " + e.Path + ": " + e.Err.Error() }

// Unwrap returns the underlying error.
func (e *PathError) Unwrap() error { return e.Err }
