package dfs

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	iofs "io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
)

// Disk is the on-disk Backend: the same namespace, dataset-version and
// CAS semantics as the in-memory FS, persisted under one host
// directory so the repository, event log and leases survive process
// restarts. The layout splits files by shape:
//
//   - Part files (paths whose last component is "part-*", i.e. dataset
//     members) live as real files under "<dir>/objects/<path>" — a
//     dir-of-files store, written temp-then-rename so a reader never
//     sees a half-written part.
//
//   - Standalone files (log records, MANIFEST, lease records, counters
//     — every path that is its own dataset) live as records in a
//     single compact binary log, "<dir>/dfs.log": a fixed header, then
//     length-prefixed checksummed records. The in-memory index over it
//     is rebuilt on load (a torn tail is truncated, not an error), and
//     the log is recompacted — rewritten with only live records — when
//     the dead-record ratio crosses a threshold. Dataset versions are
//     persisted through the same records, which preserves the
//     delete-bumps-version tombstone the durable log's trimmed-slot
//     detection depends on.
//
// Version CAS holds on real disk through O_EXCL fencing: a successful
// WriteFileIf/RemoveFileIf first creates "<dir>/fences/<ds>@<from>"
// with O_CREATE|O_EXCL, so of two processes racing one version
// transition exactly one can win it, then commits (record append or
// object rename) and removes the fence. A process opening the
// directory additionally takes a flock on "<dir>/LOCK", so live
// ownership is exclusive: concurrent mutators share one *Disk (as the
// multi-System tests share one *FS), while the fence files keep the
// CAS honest across the crash/restart windows where a predecessor's
// fence may still be on disk.
//
// All methods are safe for concurrent use.
type Disk struct {
	dir  string
	lock *os.File

	mu       sync.RWMutex
	files    map[string]*diskFile
	version  map[string]int64 // per dataset; monotone per dataset
	datasets map[string]*dsInfo

	log      *os.File
	logRecs  int             // records in dfs.log
	liveKeys map[string]bool // distinct live record keys (last write wins)
	syncLog  bool

	recompacts atomic.Int64

	bytesRead    atomic.Int64
	bytesWritten atomic.Int64

	writeFault func(path string, data []byte) ([]byte, error)
}

// diskFile is one live logical file: inline content (standalone files,
// stored in the record log) or a size-only stub backed by an object
// file under objects/.
type diskFile struct {
	size   int64
	inline []byte // nil ⇒ stored at objects/<path>
}

// Record log format constants.
const (
	diskLogMagic  = "RSTRDFSL"
	diskLogFormat = 1

	opFilePut    = 'F' // inline content (+ version when Ver > 0)
	opFileDel    = 'D' // inline delete (+ version when Ver > 0)
	opVersionSet = 'V' // dataset version set

	// recompactMinRecords is the log size below which recompaction is
	// never triggered automatically; past it, the log is rewritten as
	// soon as dead records outnumber live ones.
	recompactMinRecords = 512

	// maxRecordLen bounds a single record; longer means corruption.
	maxRecordLen = 1 << 30
)

// OpenDisk opens (or initializes) the on-disk backend rooted at dir,
// rebuilding the in-memory index from the object tree and the record
// log. It takes an exclusive flock on "<dir>/LOCK" and fails if another
// live process holds the directory.
func OpenDisk(dir string) (*Disk, error) {
	d := &Disk{
		dir:      dir,
		files:    make(map[string]*diskFile),
		version:  make(map[string]int64),
		datasets: make(map[string]*dsInfo),
		liveKeys: make(map[string]bool),
	}
	for _, sub := range []string{"", "objects", "fences"} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return nil, fmt.Errorf("dfs: disk open: %w", err)
		}
	}
	lock, err := os.OpenFile(filepath.Join(dir, "LOCK"), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("dfs: disk open: %w", err)
	}
	if err := syscall.Flock(int(lock.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		lock.Close()
		return nil, fmt.Errorf("dfs: disk directory %s is held by a live process: %w", dir, err)
	}
	d.lock = lock
	if err := d.loadObjects(); err != nil {
		lock.Close()
		return nil, err
	}
	if err := d.loadLog(); err != nil {
		lock.Close()
		return nil, err
	}
	// Normalize: a dataset holding files was written at least once.
	for ds := range d.datasets {
		if d.version[ds] == 0 {
			d.version[ds] = 1
		}
	}
	// Under the flock there is no live peer: leftover fences belong to
	// a crashed predecessor. A fence without a logged commit is an
	// unacknowledged transition — discard it.
	if ents, err := os.ReadDir(filepath.Join(dir, "fences")); err == nil {
		for _, e := range ents {
			_ = os.Remove(filepath.Join(dir, "fences", e.Name()))
		}
	}
	return d, nil
}

// Close releases the directory: the record log handle and the flock.
// The Disk must not be used afterwards.
func (d *Disk) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	var err error
	if d.log != nil {
		err = d.log.Close()
		d.log = nil
	}
	if d.lock != nil {
		d.lock.Close()
		d.lock = nil
	}
	return err
}

// SetSync enables fsync on every record append and object rename;
// without it durability is bounded by the OS page cache (sufficient
// against process crashes, not machine crashes).
func (d *Disk) SetSync(on bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.syncLog = on
}

// loadObjects walks objects/ and indexes every part file found there.
func (d *Disk) loadObjects() error {
	root := filepath.Join(d.dir, "objects")
	return filepath.WalkDir(root, func(path string, de iofs.DirEntry, err error) error {
		if err != nil || de.IsDir() {
			return err
		}
		rel, rerr := filepath.Rel(root, path)
		if rerr != nil {
			return rerr
		}
		info, ierr := de.Info()
		if ierr != nil {
			return ierr
		}
		p := filepath.ToSlash(rel)
		d.files[p] = &diskFile{size: info.Size()}
		d.accountLocked(p, info.Size(), 1)
		return nil
	})
}

// loadLog replays dfs.log into the index, truncating a torn tail, and
// leaves the handle open for appends. A missing log is initialized.
func (d *Disk) loadLog() error {
	path := filepath.Join(d.dir, "dfs.log")
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("dfs: disk log: %w", err)
	}
	header := make([]byte, len(diskLogMagic)+4)
	n, err := io.ReadFull(f, header)
	switch {
	case n == 0:
		binary.LittleEndian.PutUint32(header[len(diskLogMagic):], diskLogFormat)
		copy(header, diskLogMagic)
		if _, err := f.Write(header); err != nil {
			f.Close()
			return fmt.Errorf("dfs: disk log: %w", err)
		}
	case err != nil:
		// A header torn mid-write: the log never held a record.
		if terr := f.Truncate(0); terr != nil {
			f.Close()
			return fmt.Errorf("dfs: disk log: %w", terr)
		}
		f.Close()
		return d.loadLog()
	default:
		if string(header[:len(diskLogMagic)]) != diskLogMagic {
			f.Close()
			return fmt.Errorf("dfs: %s is not a dfs record log", path)
		}
		if v := binary.LittleEndian.Uint32(header[len(diskLogMagic):]); v != diskLogFormat {
			f.Close()
			return fmt.Errorf("dfs: unsupported record log format %d", v)
		}
	}
	offset := int64(len(header))
	var lenBuf [4]byte
	for {
		if _, err := io.ReadFull(f, lenBuf[:]); err != nil {
			break // clean end (or torn length prefix)
		}
		recLen := binary.LittleEndian.Uint32(lenBuf[:])
		if recLen == 0 || recLen > maxRecordLen {
			break
		}
		buf := make([]byte, recLen+4)
		if _, err := io.ReadFull(f, buf); err != nil {
			break // torn record
		}
		payload, sum := buf[:recLen], binary.LittleEndian.Uint32(buf[recLen:])
		if crc32.ChecksumIEEE(payload) != sum {
			break // corrupt record: everything past it is suspect
		}
		d.applyRecordLocked(payload)
		offset += int64(4 + len(buf))
	}
	if err := f.Truncate(offset); err != nil {
		f.Close()
		return fmt.Errorf("dfs: disk log: %w", err)
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		return fmt.Errorf("dfs: disk log: %w", err)
	}
	d.log = f
	return nil
}

// recordKey is the last-write-wins identity of a record, for dead
// record accounting.
func recordKey(op byte, path string) string {
	if op == opVersionSet {
		return "v\x00" + path
	}
	return "f\x00" + path
}

// applyRecordLocked folds one decoded log record into the index.
func (d *Disk) applyRecordLocked(payload []byte) {
	if len(payload) < 1+4 {
		return
	}
	op := payload[0]
	pathLen := binary.LittleEndian.Uint32(payload[1:5])
	if int(pathLen) > len(payload)-5 {
		return
	}
	path := string(payload[5 : 5+pathLen])
	rest := payload[5+pathLen:]
	if len(rest) < 8 {
		return
	}
	ver := int64(binary.LittleEndian.Uint64(rest[:8]))
	data := rest[8:]
	d.logRecs++
	d.liveKeys[recordKey(op, path)] = true
	switch op {
	case opFilePut:
		if old, ok := d.files[path]; ok {
			d.accountLocked(path, -old.size, -1)
		}
		d.files[path] = &diskFile{size: int64(len(data)), inline: append([]byte(nil), data...)}
		d.accountLocked(path, int64(len(data)), 1)
		if ver > 0 {
			d.version[datasetOf(path)] = ver
		}
	case opFileDel:
		if old, ok := d.files[path]; ok {
			d.accountLocked(path, -old.size, -1)
			delete(d.files, path)
		}
		if ver > 0 {
			d.version[datasetOf(path)] = ver
		}
	case opVersionSet:
		d.version[path] = ver
	}
}

// encodeRecord frames one record: length, payload, crc.
func encodeRecord(op byte, path string, ver int64, data []byte) []byte {
	payload := make([]byte, 0, 1+4+len(path)+8+len(data))
	payload = append(payload, op)
	payload = binary.LittleEndian.AppendUint32(payload, uint32(len(path)))
	payload = append(payload, path...)
	payload = binary.LittleEndian.AppendUint64(payload, uint64(ver))
	payload = append(payload, data...)
	rec := make([]byte, 0, 4+len(payload)+4)
	rec = binary.LittleEndian.AppendUint32(rec, uint32(len(payload)))
	rec = append(rec, payload...)
	rec = binary.LittleEndian.AppendUint32(rec, crc32.ChecksumIEEE(payload))
	return rec
}

// appendRecordLocked writes one record to the log in a single write.
// It does not recompact: the caller's in-memory state may not yet
// reflect this record, and recompaction rewrites the log from that
// state — mutators call maybeRecompactLocked once they are consistent.
func (d *Disk) appendRecordLocked(op byte, path string, ver int64, data []byte) error {
	if _, err := d.log.Write(encodeRecord(op, path, ver, data)); err != nil {
		return fmt.Errorf("dfs: disk log append: %w", err)
	}
	if d.syncLog {
		if err := d.log.Sync(); err != nil {
			return fmt.Errorf("dfs: disk log sync: %w", err)
		}
	}
	d.logRecs++
	d.liveKeys[recordKey(op, path)] = true
	return nil
}

// maybeRecompactLocked rewrites the log once it is big enough and dead
// records outnumber live ones. Called at the end of mutations, when
// the in-memory index is consistent with the log.
func (d *Disk) maybeRecompactLocked() {
	if d.logRecs >= recompactMinRecords && d.logRecs-len(d.liveKeys) > len(d.liveKeys) {
		_ = d.recompactLocked()
	}
}

// Recompact rewrites the record log with only live state: one put per
// inline file, one version record per dataset version not carried by a
// put. Tombstone versions of deleted datasets are preserved — the
// durable log's trimmed-slot detection depends on them.
func (d *Disk) Recompact() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.recompactLocked()
}

// Recompactions returns how many times the record log has been
// rewritten since open.
func (d *Disk) Recompactions() int64 { return d.recompacts.Load() }

func (d *Disk) recompactLocked() error {
	tmpPath := filepath.Join(d.dir, "dfs.log.tmp")
	f, err := os.Create(tmpPath)
	if err != nil {
		return fmt.Errorf("dfs: recompact: %w", err)
	}
	header := make([]byte, len(diskLogMagic)+4)
	copy(header, diskLogMagic)
	binary.LittleEndian.PutUint32(header[len(diskLogMagic):], diskLogFormat)
	if _, err := f.Write(header); err != nil {
		f.Close()
		return fmt.Errorf("dfs: recompact: %w", err)
	}
	recs := 0
	keys := make(map[string]bool)
	emit := func(op byte, path string, ver int64, data []byte) error {
		if _, err := f.Write(encodeRecord(op, path, ver, data)); err != nil {
			return err
		}
		recs++
		keys[recordKey(op, path)] = true
		return nil
	}
	inline := make([]string, 0, len(d.files))
	covered := make(map[string]bool)
	for p, f := range d.files {
		if f.inline != nil {
			inline = append(inline, p)
		}
	}
	sort.Strings(inline)
	for _, p := range inline {
		ds := datasetOf(p)
		ver := int64(0)
		if ds == p {
			ver = d.version[p]
			covered[p] = true
		}
		if err := emit(opFilePut, p, ver, d.files[p].inline); err != nil {
			f.Close()
			return fmt.Errorf("dfs: recompact: %w", err)
		}
	}
	dss := make([]string, 0, len(d.version))
	for ds := range d.version {
		if !covered[ds] {
			dss = append(dss, ds)
		}
	}
	sort.Strings(dss)
	for _, ds := range dss {
		if err := emit(opVersionSet, ds, d.version[ds], nil); err != nil {
			f.Close()
			return fmt.Errorf("dfs: recompact: %w", err)
		}
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("dfs: recompact: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("dfs: recompact: %w", err)
	}
	if err := os.Rename(tmpPath, filepath.Join(d.dir, "dfs.log")); err != nil {
		return fmt.Errorf("dfs: recompact: %w", err)
	}
	reopened, err := os.OpenFile(filepath.Join(d.dir, "dfs.log"), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("dfs: recompact: %w", err)
	}
	if d.log != nil {
		d.log.Close()
	}
	d.log = reopened
	d.logRecs = recs
	d.liveKeys = keys
	d.recompacts.Add(1)
	return nil
}

// isInline reports whether path is stored in the record log rather
// than as an object file: every path that is its own dataset.
func isInline(p string) bool { return datasetOf(p) == p }

// objectPath maps a logical path to its objects/ file.
func (d *Disk) objectPath(p string) string {
	return filepath.Join(d.dir, "objects", filepath.FromSlash(p))
}

// writeObject commits data to objects/<p> via temp-then-rename.
func (d *Disk) writeObject(p string, data []byte) error {
	full := d.objectPath(p)
	if err := os.MkdirAll(filepath.Dir(full), 0o755); err != nil {
		return err
	}
	tmp := full + ".tmp~"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if d.syncLog {
		if err := f.Sync(); err != nil {
			f.Close()
			os.Remove(tmp)
			return err
		}
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, full)
}

// removeObject deletes objects/<p> and prunes now-empty parent
// directories up to the objects root.
func (d *Disk) removeObject(p string) {
	full := d.objectPath(p)
	_ = os.Remove(full)
	root := filepath.Join(d.dir, "objects")
	for dir := filepath.Dir(full); dir != root && strings.HasPrefix(dir, root); dir = filepath.Dir(dir) {
		if os.Remove(dir) != nil {
			break // not empty (or gone)
		}
	}
}

// accountLocked mirrors FS.accountLocked over the dataset accounting.
func (d *Disk) accountLocked(path string, bytes int64, files int) {
	ds := datasetOf(path)
	info := d.datasets[ds]
	if info == nil {
		info = &dsInfo{}
		d.datasets[ds] = info
	}
	info.bytes += bytes
	info.files += files
	if info.files <= 0 {
		delete(d.datasets, ds)
	}
}

// Create opens a new file for writing; Close commits it.
func (d *Disk) Create(path string) io.WriteCloser {
	return &diskFileWriter{d: d, path: clean(path)}
}

type diskFileWriter struct {
	d    *Disk
	path string
	buf  bytes.Buffer
}

func (w *diskFileWriter) Write(p []byte) (int, error) { return w.buf.Write(p) }

func (w *diskFileWriter) Close() error {
	w.d.mu.Lock()
	defer w.d.mu.Unlock()
	err := w.d.commitLocked(w.path, append([]byte(nil), w.buf.Bytes()...), true)
	w.d.maybeRecompactLocked()
	return err
}

// commitLocked is the single file-commit path (mu held): applies the
// write fault when asked, stores content in the right class, bumps the
// dataset version and persists both through the record log.
func (d *Disk) commitLocked(p string, data []byte, applyFault bool) error {
	var faultErr error
	if applyFault && d.writeFault != nil {
		data, faultErr = d.writeFault(p, data)
		if faultErr != nil && data == nil {
			return faultErr // crash before any byte hit the disk
		}
	}
	ds := datasetOf(p)
	newVer := d.version[ds] + 1
	if isInline(p) {
		if err := d.appendRecordLocked(opFilePut, p, newVer, data); err != nil {
			return err
		}
		if old, ok := d.files[p]; ok {
			d.accountLocked(p, -old.size, -1)
		}
		d.files[p] = &diskFile{size: int64(len(data)), inline: append([]byte(nil), data...)}
	} else {
		if err := d.writeObject(p, data); err != nil {
			return err
		}
		if err := d.appendRecordLocked(opVersionSet, ds, newVer, nil); err != nil {
			return err
		}
		if old, ok := d.files[p]; ok {
			d.accountLocked(p, -old.size, -1)
		}
		d.files[p] = &diskFile{size: int64(len(data))}
	}
	d.version[ds] = newVer
	d.bytesWritten.Add(int64(len(data)))
	d.accountLocked(p, int64(len(data)), 1)
	return faultErr
}

// WriteFile writes data to path in one call.
func (d *Disk) WriteFile(path string, data []byte) error {
	w := d.Create(path)
	if _, err := w.Write(data); err != nil {
		return err
	}
	return w.Close()
}

// SetWriteFault installs the crash-injection commit interceptor; see
// (*FS).SetWriteFault for the contract.
func (d *Disk) SetWriteFault(fn func(path string, data []byte) ([]byte, error)) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.writeFault = fn
}

// Open returns a reader over the file at path.
func (d *Disk) Open(path string) (io.Reader, error) {
	data, err := d.ReadFile(path)
	if err != nil {
		return nil, &PathError{Op: "open", Path: path, Err: ErrNotExist}
	}
	return bytes.NewReader(data), nil
}

// ReadFile returns the contents of the file at path.
func (d *Disk) ReadFile(path string) ([]byte, error) {
	d.mu.RLock()
	p := clean(path)
	f, ok := d.files[p]
	var data []byte
	var err error
	if ok {
		if f.inline != nil {
			data = append([]byte(nil), f.inline...)
		} else {
			data, err = os.ReadFile(d.objectPath(p))
		}
	}
	d.mu.RUnlock()
	if !ok || err != nil {
		return nil, &PathError{Op: "read", Path: path, Err: ErrNotExist}
	}
	d.bytesRead.Add(int64(len(data)))
	return data, nil
}

// Exists reports whether path names a file or a directory prefix.
func (d *Disk) Exists(path string) bool {
	d.mu.RLock()
	defer d.mu.RUnlock()
	p := clean(path)
	if _, ok := d.files[p]; ok {
		return true
	}
	if _, ok := d.datasets[p]; ok {
		return true
	}
	prefix := p + "/"
	for name := range d.datasets {
		if strings.HasPrefix(name, prefix) {
			return true
		}
	}
	return false
}

// List returns the file paths under path, sorted.
func (d *Disk) List(path string) []string {
	d.mu.RLock()
	defer d.mu.RUnlock()
	p := clean(path)
	var out []string
	if p == "" {
		for name := range d.files {
			out = append(out, name)
		}
		sort.Strings(out)
		return out
	}
	if _, ok := d.files[p]; ok {
		out = append(out, p)
	}
	prefix := p + "/"
	for name := range d.files {
		if strings.HasPrefix(name, prefix) {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// FileStats returns the per-file sizes under path, sorted by path.
func (d *Disk) FileStats(path string) []FileStat {
	d.mu.RLock()
	defer d.mu.RUnlock()
	p := clean(path)
	var out []FileStat
	if f, ok := d.files[p]; ok {
		out = append(out, FileStat{Path: p, Size: f.size})
	}
	prefix := p + "/"
	for name, f := range d.files {
		if strings.HasPrefix(name, prefix) {
			out = append(out, FileStat{Path: name, Size: f.size})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out
}

// Size returns the total bytes stored under path.
func (d *Disk) Size(path string) int64 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	p := clean(path)
	var n int64
	if info, ok := d.datasets[p]; ok {
		n += info.bytes
	} else if f, ok := d.files[p]; ok {
		n += f.size
	}
	prefix := p + "/"
	for name, info := range d.datasets {
		if strings.HasPrefix(name, prefix) {
			n += info.bytes
		}
	}
	return n
}

// Stat returns bytes, dataset version and leafness in one acquisition;
// see (*FS).Stat for the contract.
func (d *Disk) Stat(path string) (bytes int64, version int64, leaf bool) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	p := clean(path)
	version = d.version[datasetOf(p)]
	if info, ok := d.datasets[p]; ok {
		return info.bytes, version, true
	}
	if f, ok := d.files[p]; ok {
		return f.size, version, true
	}
	prefix := p + "/"
	for name, info := range d.datasets {
		if strings.HasPrefix(name, prefix) {
			bytes += info.bytes
		}
	}
	return bytes, version, false
}

// Datasets returns the dataset paths holding data under prefix, sorted.
func (d *Disk) Datasets(prefix string) []string {
	d.mu.RLock()
	defer d.mu.RUnlock()
	p := clean(prefix)
	var out []string
	for name := range d.datasets {
		if p == "" || name == p || strings.HasPrefix(name, p+"/") {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// Delete removes the file or directory tree at path, bumping the
// dataset version of path itself (matching FS semantics).
func (d *Disk) Delete(path string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	p := clean(path)
	victims := d.underLocked(p)
	if len(victims) == 0 {
		return &PathError{Op: "delete", Path: path, Err: ErrNotExist}
	}
	for _, name := range victims {
		if err := d.dropFileLocked(name); err != nil {
			return err
		}
	}
	ds := datasetOf(p)
	newVer := d.version[ds] + 1
	if err := d.appendRecordLocked(opVersionSet, ds, newVer, nil); err != nil {
		return err
	}
	d.version[ds] = newVer
	d.maybeRecompactLocked()
	return nil
}

// underLocked lists the live file paths at p and under p/ (mu held).
func (d *Disk) underLocked(p string) []string {
	var out []string
	if _, ok := d.files[p]; ok {
		out = append(out, p)
	}
	prefix := p + "/"
	for name := range d.files {
		if strings.HasPrefix(name, prefix) {
			out = append(out, name)
		}
	}
	return out
}

// dropFileLocked removes one live file (content + accounting) without
// touching versions.
func (d *Disk) dropFileLocked(name string) error {
	f := d.files[name]
	if f == nil {
		return nil
	}
	if f.inline != nil {
		if err := d.appendRecordLocked(opFileDel, name, 0, nil); err != nil {
			return err
		}
	} else {
		d.removeObject(name)
	}
	d.accountLocked(name, -f.size, -1)
	delete(d.files, name)
	return nil
}

// Rename atomically moves the file or tree at oldPath to newPath,
// replacing the destination; every touched dataset's version is bumped
// inside the critical section, matching the fixed FS semantics.
func (d *Disk) Rename(oldPath, newPath string) (int64, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	op, np := clean(oldPath), clean(newPath)
	srcs := d.underLocked(op)
	if len(srcs) == 0 {
		return 0, &PathError{Op: "rename", Path: oldPath, Err: ErrNotExist}
	}
	touched := map[string]bool{datasetOf(op): true, datasetOf(np): true}
	type move struct {
		src, dst string
		data     []byte
	}
	moves := make([]move, 0, len(srcs))
	for _, src := range srcs {
		dst := np
		if src != op {
			dst = np + "/" + src[len(op)+1:]
		}
		touched[datasetOf(src)] = true
		touched[datasetOf(dst)] = true
		f := d.files[src]
		var data []byte
		// Content crosses storage classes (or is replayed into the log)
		// by value; object-to-object moves rename on disk.
		if f.inline != nil || isInline(dst) {
			var err error
			if data, err = d.readLocked(src); err != nil {
				return 0, err
			}
		}
		moves = append(moves, move{src: src, dst: dst, data: data})
	}
	// Clobber the destination tree.
	for _, name := range d.underLocked(np) {
		touched[datasetOf(name)] = true
		if err := d.dropFileLocked(name); err != nil {
			return 0, err
		}
	}
	for _, mv := range moves {
		f := d.files[mv.src]
		switch {
		case f.inline == nil && !isInline(mv.dst):
			full := d.objectPath(mv.dst)
			if err := os.MkdirAll(filepath.Dir(full), 0o755); err != nil {
				return 0, err
			}
			if err := os.Rename(d.objectPath(mv.src), full); err != nil {
				return 0, err
			}
			d.removeObjectDirs(mv.src)
			d.files[mv.dst] = &diskFile{size: f.size}
		case f.inline == nil: // object → inline
			d.removeObject(mv.src)
			if err := d.appendRecordLocked(opFilePut, mv.dst, 0, mv.data); err != nil {
				return 0, err
			}
			d.files[mv.dst] = &diskFile{size: int64(len(mv.data)), inline: append([]byte(nil), mv.data...)}
		case !isInline(mv.dst): // inline → object
			if err := d.appendRecordLocked(opFileDel, mv.src, 0, nil); err != nil {
				return 0, err
			}
			if err := d.writeObject(mv.dst, mv.data); err != nil {
				return 0, err
			}
			d.files[mv.dst] = &diskFile{size: int64(len(mv.data))}
		default: // inline → inline
			if err := d.appendRecordLocked(opFileDel, mv.src, 0, nil); err != nil {
				return 0, err
			}
			if err := d.appendRecordLocked(opFilePut, mv.dst, 0, mv.data); err != nil {
				return 0, err
			}
			d.files[mv.dst] = &diskFile{size: int64(len(mv.data)), inline: append([]byte(nil), mv.data...)}
		}
		d.accountLocked(mv.src, -f.size, -1)
		delete(d.files, mv.src)
		d.accountLocked(mv.dst, d.files[mv.dst].size, 1)
	}
	dss := make([]string, 0, len(touched))
	for ds := range touched {
		dss = append(dss, ds)
	}
	sort.Strings(dss)
	for _, ds := range dss {
		newVer := d.version[ds] + 1
		if err := d.appendRecordLocked(opVersionSet, ds, newVer, nil); err != nil {
			return 0, err
		}
		d.version[ds] = newVer
	}
	d.maybeRecompactLocked()
	return d.version[datasetOf(np)], nil
}

// removeObjectDirs prunes empty parents after an object moved away.
func (d *Disk) removeObjectDirs(p string) {
	root := filepath.Join(d.dir, "objects")
	for dir := filepath.Dir(d.objectPath(p)); dir != root && strings.HasPrefix(dir, root); dir = filepath.Dir(dir) {
		if os.Remove(dir) != nil {
			break
		}
	}
}

// readLocked reads a live file's content with mu already held.
func (d *Disk) readLocked(p string) ([]byte, error) {
	f := d.files[p]
	if f == nil {
		return nil, &PathError{Op: "read", Path: p, Err: ErrNotExist}
	}
	if f.inline != nil {
		return append([]byte(nil), f.inline...), nil
	}
	return os.ReadFile(d.objectPath(p))
}

// fenceName maps a dataset + from-version to its fence file.
func fenceName(ds string, from int64) string {
	enc := strings.NewReplacer("%", "%25", "/", "%2F").Replace(ds)
	return enc + "@" + strconv.FormatInt(from, 10)
}

// takeFence claims the O_EXCL fence for one version transition. The
// returned release removes the fence after the commit is logged.
func (d *Disk) takeFence(ds string, from int64) (release func(), ok bool) {
	path := filepath.Join(d.dir, "fences", fenceName(ds, from))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, false // a peer holds (or held) this transition
	}
	f.Close()
	return func() { os.Remove(path) }, true
}

// WriteFileIf writes data to path only if path's dataset version still
// equals expect; see (*FS).WriteFileIf for the contract. On disk the
// transition is additionally fenced through an O_EXCL create, so two
// processes racing one version transition resolve to one winner.
func (d *Disk) WriteFileIf(path string, data []byte, expect int64) (int64, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	p := clean(path)
	ds := datasetOf(p)
	if d.version[ds] != expect {
		return d.version[ds], false
	}
	release, ok := d.takeFence(ds, expect)
	if !ok {
		return d.version[ds], false
	}
	defer release()
	torn := false
	if d.writeFault != nil {
		faulted, faultErr := d.writeFault(p, append([]byte(nil), data...))
		if faultErr != nil {
			if faulted == nil {
				return d.version[ds], false // dropped: nothing hit the disk
			}
			data, torn = faulted, true
		}
	}
	if err := d.commitLocked(p, data, false); err != nil {
		return d.version[ds], false
	}
	d.maybeRecompactLocked()
	return d.version[ds], !torn
}

// RemoveFileIf deletes the file at path only if its dataset version
// still equals expect; the transition is fenced like WriteFileIf's.
func (d *Disk) RemoveFileIf(path string, expect int64) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	p := clean(path)
	ds := datasetOf(p)
	if d.version[ds] != expect {
		return false
	}
	if _, ok := d.files[p]; !ok {
		return false
	}
	release, ok := d.takeFence(ds, expect)
	if !ok {
		return false
	}
	defer release()
	if err := d.dropFileLocked(p); err != nil {
		return false
	}
	newVer := d.version[ds] + 1
	if err := d.appendRecordLocked(opVersionSet, ds, newVer, nil); err != nil {
		return false
	}
	d.version[ds] = newVer
	d.maybeRecompactLocked()
	return true
}

// Version returns the modification version of the dataset containing
// path; zero means never written.
func (d *Disk) Version(path string) int64 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.version[datasetOf(path)]
}

// BytesRead returns the cumulative bytes read through the backend.
func (d *Disk) BytesRead() int64 { return d.bytesRead.Load() }

// BytesWritten returns the cumulative bytes written through the backend.
func (d *Disk) BytesWritten() int64 { return d.bytesWritten.Load() }

// TotalBytes returns the total bytes currently stored.
func (d *Disk) TotalBytes() int64 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	var n int64
	for _, info := range d.datasets {
		n += info.bytes
	}
	return n
}
