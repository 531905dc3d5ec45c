package store

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"syscall"
	"time"

	"repro/internal/faultfs"
	"repro/internal/obs"
)

// Record is one durable event. Seq is assigned by the log and strictly
// increases across snapshot and WAL; Kind and ID are caller-defined; Data
// is the caller's JSON payload.
type Record struct {
	Seq  uint64          `json:"seq"`
	Kind string          `json:"kind"`
	ID   string          `json:"id,omitempty"`
	Data json.RawMessage `json:"data,omitempty"`
}

// snapshotFile is the on-disk form of snapshot.json.
type snapshotFile struct {
	Seq     uint64   `json:"seq"`
	Records []Record `json:"records"`
}

// Stats counts the log's activity since Open, for /api/stats.
type Stats struct {
	// Replayed is the number of records recovered at Open (snapshot + WAL).
	Replayed int `json:"records_replayed"`
	// Appended counts records written since Open.
	Appended int `json:"records_appended"`
	// Compactions counts snapshot rewrites since Open.
	Compactions int `json:"compactions"`
	// TornTail reports whether Open found (and discarded) a torn final WAL
	// line from a crash mid-write.
	TornTail bool `json:"torn_tail,omitempty"`
	// WALRecords and WALBytes measure the WAL since the last compaction
	// (what a crash right now would have to replay).
	WALRecords int   `json:"wal_records"`
	WALBytes   int64 `json:"wal_bytes"`
	// Poisoned reports that a rollback after a failed append also failed,
	// so appends are refused until Recover succeeds.
	Poisoned bool `json:"poisoned,omitempty"`
}

// Options tunes an OpenOptions call. The zero value is the real filesystem
// and no compaction trigger.
type Options struct {
	// FS is the filesystem seam; nil means faultfs.OS (the real one).
	FS faultfs.FS
	// CompactAtBytes arms the compaction trigger: when the WAL grows past
	// this size after an append, the SetCompactionTrigger callback fires
	// once. 0 disables it.
	CompactAtBytes int64
}

// Log is an open snapshot+WAL pair. All methods are safe for concurrent
// use.
type Log struct {
	fs   faultfs.FS
	dir  string
	opts Options

	mu       sync.Mutex
	wal      faultfs.File
	lock     faultfs.File
	seq      uint64
	walBytes int64 // acknowledged bytes in the WAL since the last compaction
	walRecs  int   // records in the WAL since the last compaction
	replayed []Record
	stats    Stats
	sync     bool

	compactCb func()
	signaled  bool // trigger fired; reset by Compact

	// Optional latency instrumentation (see Instrument). obs histograms
	// are nil-receiver-safe, so unwired logs pay one branch per append.
	appendHist *obs.Histogram
	fsyncHist  *obs.Histogram
}

const (
	snapshotName = "snapshot.json"
	walName      = "wal.jsonl"
	lockName     = "lock"
)

// legacySegmentName is the name of the WAL segment files logs wrote while
// the WAL rotated; segment 0 was wal.jsonl itself.
const legacySegmentName = "wal-%06d.jsonl"

// legacySegments lists the legacy segment files in dir in index order.
// Open folds them into the snapshot and removes them; nothing writes them
// any more.
func legacySegments(fsys faultfs.FS, dir string) ([]string, error) {
	ents, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var idxs []int
	for _, e := range ents {
		var i int
		// Round-trip through the canonical name so "wal-1.jsonl" or
		// "wal-000001.jsonl.tmp" is never misclaimed.
		if n, _ := fmt.Sscanf(e.Name(), "wal-%d.jsonl", &i); n == 1 && i > 0 && fmt.Sprintf(legacySegmentName, i) == e.Name() {
			idxs = append(idxs, i)
		}
	}
	sort.Ints(idxs)
	names := make([]string, len(idxs))
	for k, i := range idxs {
		names[k] = fmt.Sprintf(legacySegmentName, i)
	}
	return names, nil
}

// Open opens (creating if needed) the log in dir with default Options and
// replays its state.
func Open(dir string) (*Log, error) {
	return OpenOptions(dir, Options{})
}

// OpenOptions opens (creating if needed) the log in dir and replays its
// state: snapshot first, then wal.jsonl, then any legacy segment files in
// index order. The replayed records are available from Records until the
// first Compact. Legacy segments are folded into the snapshot and removed
// before OpenOptions returns, so appends only ever go to wal.jsonl. The
// directory is flock'd for the lifetime of the Log: a second process
// pointed at the same dir fails here instead of interleaving WAL appends
// (the kernel releases the lock on process death, so a kill -9 never
// strands it).
func OpenOptions(dir string, opts Options) (*Log, error) {
	fsys := opts.FS
	if fsys == nil {
		fsys = faultfs.OS
	}
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: creating %s: %w", dir, err)
	}
	lock, err := fsys.OpenFile(filepath.Join(dir, lockName), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: opening lock file: %w", err)
	}
	if err := syscall.Flock(int(lock.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		lock.Close()
		return nil, fmt.Errorf("store: data dir %s is in use by another process: %w", dir, err)
	}
	l := &Log{fs: fsys, dir: dir, opts: opts, lock: lock, sync: true}
	opened := false
	defer func() {
		if !opened {
			if l.wal != nil {
				l.wal.Close()
			}
			lock.Close() // releases the flock on every error path
		}
	}()

	var recs []Record
	var snapSeq uint64
	if raw, err := fsys.ReadFile(filepath.Join(dir, snapshotName)); err == nil {
		var snap snapshotFile
		if err := json.Unmarshal(raw, &snap); err != nil {
			return nil, fmt.Errorf("store: corrupt %s: %w", snapshotName, err)
		}
		recs = append(recs, snap.Records...)
		snapSeq = snap.Seq
	} else if !errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("store: reading snapshot: %w", err)
	}

	legacy, err := legacySegments(fsys, dir)
	if err != nil {
		return nil, fmt.Errorf("store: listing WAL files: %w", err)
	}
	var lastSeq uint64 // highest seq on any WAL line read so far
	for i, name := range append([]string{walName}, legacy...) {
		path := filepath.Join(dir, name)
		raw, err := fsys.ReadFile(path)
		if errors.Is(err, os.ErrNotExist) && i == 0 {
			continue
		}
		if err != nil {
			return nil, fmt.Errorf("store: reading %s: %w", path, err)
		}
		// A file not ending in '\n' carries a torn final append: each
		// record is written (line + '\n') in one call, so any prefix may
		// have survived a crash — including one that still parses as JSON.
		// The append was never acknowledged, so the partial line is
		// discarded wholesale; keeping it would let the next append merge
		// two records onto one line and brick the following boot. Only the
		// last file can carry one: appends only ever went to the last.
		if len(raw) > 0 && raw[len(raw)-1] != '\n' {
			if i != len(legacy) {
				return nil, fmt.Errorf("store: %s has a torn tail but is not the last WAL file; refusing to open", path)
			}
			cut := bytes.LastIndexByte(raw, '\n') + 1
			raw = raw[:cut]
			l.stats.TornTail = true
			if err := fsys.Truncate(path, int64(cut)); err != nil {
				return nil, fmt.Errorf("store: truncating torn WAL tail: %w", err)
			}
		}
		// Every surviving line is newline-terminated and therefore was
		// written whole; a malformed one is corruption, not a tear.
		lines, err := parseWAL(raw, snapSeq, &recs, &lastSeq)
		if err != nil {
			return nil, fmt.Errorf("store: reading %s: %w", path, err)
		}
		if i == 0 {
			l.walBytes, l.walRecs = int64(len(raw)), lines
		}
	}
	l.seq = max(snapSeq, lastSeq)
	// No honest log comes near this; refusing it keeps l.seq++ from
	// wrapping around to a sequence number replay would reject.
	if l.seq > math.MaxInt64 {
		return nil, fmt.Errorf("store: sequence number %d is implausibly large; refusing to open", l.seq)
	}

	wal, err := fsys.OpenFile(filepath.Join(dir, walName), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: opening WAL: %w", err)
	}
	l.wal = wal
	if len(legacy) > 0 {
		if err := l.foldLegacy(recs, legacy); err != nil {
			return nil, err
		}
	}
	l.replayed = recs
	l.stats.Replayed = len(recs)
	opened = true
	return l, nil
}

// foldLegacy writes every replayed record into the snapshot, then empties
// wal.jsonl and removes the legacy segment files. The snapshot is durable
// before any WAL byte is dropped, and its seq shadows every record in
// them, so a crash anywhere here replays the same records and folds
// again. The records keep their sequence numbers, so a reopen replays
// exactly what this one did.
func (l *Log) foldLegacy(recs []Record, legacy []string) error {
	if err := l.writeSnapshot(snapshotFile{Seq: l.seq, Records: recs}); err != nil {
		return err
	}
	if err := l.wal.Truncate(0); err != nil {
		return fmt.Errorf("store: truncating WAL: %w", err)
	}
	l.walBytes, l.walRecs = 0, 0
	for _, name := range legacy {
		if err := l.fs.Remove(filepath.Join(l.dir, name)); err != nil {
			return fmt.Errorf("store: removing legacy WAL segment: %w", err)
		}
	}
	// A removal that did not survive a power failure would bring back a
	// shadowed file after wal.jsonl, where a later torn tail in wal.jsonl
	// would refuse the boot.
	return syncDir(l.fs, l.dir)
}

// parseWAL appends each record line in raw to recs and returns the line
// count. raw is empty or ends in '\n'. Records with Seq <= snapSeq are
// already covered by the snapshot and are skipped: a crash between
// Compact's snapshot rename and its WAL truncation leaves the
// pre-compaction WAL behind, and replaying it on top of the snapshot
// would duplicate every session. Appends number records upwards, so each
// line's Seq must exceed *lastSeq, the previous line's, which it then
// becomes. A malformed or out-of-order line is corruption: the error
// refuses the open rather than silently truncating acknowledged records.
func parseWAL(raw []byte, snapSeq uint64, recs *[]Record, lastSeq *uint64) (int, error) {
	lines := 0
	for off := 0; off < len(raw); lines++ {
		n := bytes.IndexByte(raw[off:], '\n')
		var rec Record
		if err := json.Unmarshal(raw[off:off+n], &rec); err != nil {
			return lines, fmt.Errorf("malformed record at byte %d: %w", off, err)
		}
		if rec.Seq <= *lastSeq {
			return lines, fmt.Errorf("record at byte %d has seq %d, not above the previous %d", off, rec.Seq, *lastSeq)
		}
		*lastSeq = rec.Seq
		if rec.Seq > snapSeq {
			*recs = append(*recs, rec)
		}
		off += n + 1
	}
	return lines, nil
}

// SetSync controls whether each append fsyncs the WAL (default true).
// Benchmarks may disable it; services should not.
func (l *Log) SetSync(on bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.sync = on
}

// Instrument wires latency histograms into the append path: appendHist
// observes the full durable-append latency (marshal to acknowledged),
// fsyncHist just the WAL fsync. Either may be nil. The serving layer calls
// this with shard-labeled series when it attaches a store; counters like
// compactions are already in Stats and are exported from there at scrape
// time.
func (l *Log) Instrument(appendHist, fsyncHist *obs.Histogram) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.appendHist = appendHist
	l.fsyncHist = fsyncHist
}

// SetCompactionTrigger installs fn, called at most once — from inside an
// Append, with the log's lock held — when the WAL grows past
// Options.CompactAtBytes; Compact re-arms it. fn must not block and must
// not call back into the Log (typically it does a non-blocking send on a
// channel a maintenance goroutine drains). If the bound is already
// exceeded, fn fires immediately.
func (l *Log) SetCompactionTrigger(fn func()) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.compactCb = fn
	l.maybeSignal()
}

// maybeSignal fires the compaction trigger when armed and over-threshold.
// Caller holds l.mu.
func (l *Log) maybeSignal() {
	if l.signaled || l.compactCb == nil {
		return
	}
	if l.opts.CompactAtBytes > 0 && l.walBytes > l.opts.CompactAtBytes {
		l.signaled = true
		l.compactCb()
	}
}

// Records returns the records replayed at Open, in log order. The slice is
// shared; callers must not mutate it.
func (l *Log) Records() []Record {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.replayed
}

// Append marshals v, assigns the next sequence number, and durably appends
// the record to the WAL (write + fsync before returning).
func (l *Log) Append(kind, id string, v any) (Record, error) {
	start := time.Now()
	data, err := json.Marshal(v)
	if err != nil {
		return Record{}, fmt.Errorf("store: marshaling %s record: %w", kind, err)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.wal == nil {
		if l.lock != nil {
			return Record{}, fmt.Errorf("store: log is poisoned by a failed rollback; call Recover")
		}
		return Record{}, fmt.Errorf("store: log is closed")
	}
	l.seq++
	rec := Record{Seq: l.seq, Kind: kind, ID: id, Data: data}
	line, err := json.Marshal(rec)
	if err != nil {
		return Record{}, fmt.Errorf("store: marshaling record: %w", err)
	}
	line = append(line, '\n')
	if _, err := l.wal.Write(line); err != nil {
		// A short write may have left partial bytes on the last line; if
		// the next append succeeded anyway, its record would merge with the
		// garbage and a future torn-tail truncation would silently discard
		// it. Roll back to the last good boundary, or poison the log.
		l.rollbackTail()
		return Record{}, fmt.Errorf("store: appending to WAL: %w", err)
	}
	if l.sync {
		syncStart := time.Now()
		if err := l.wal.Sync(); err != nil {
			l.rollbackTail()
			return Record{}, fmt.Errorf("store: syncing WAL: %w", err)
		}
		l.fsyncHist.Observe(time.Since(syncStart).Seconds())
	}
	l.walBytes += int64(len(line))
	l.walRecs++
	l.stats.Appended++
	l.maybeSignal()
	l.appendHist.Observe(time.Since(start).Seconds())
	return rec, nil
}

// rollbackTail discards any partially-written bytes past the last fully
// acknowledged record. If even that fails the log is poisoned (wal set to
// nil): better to refuse every later append than to risk an acknowledged
// record sharing a line with garbage.
func (l *Log) rollbackTail() {
	if err := l.wal.Truncate(l.walBytes); err != nil {
		l.wal.Close()
		l.wal = nil
	}
}

// Recover retries the rollback that poisoned the log: it re-truncates the
// WAL to the last acknowledged boundary and reopens it. A nil return means
// the log accepts appends again. Recover on a healthy log is a no-op; on a
// closed log it fails.
func (l *Log) Recover() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.wal != nil {
		return nil
	}
	if l.lock == nil {
		return fmt.Errorf("store: log is closed")
	}
	path := filepath.Join(l.dir, walName)
	if err := l.fs.Truncate(path, l.walBytes); err != nil {
		return fmt.Errorf("store: re-truncating WAL tail: %w", err)
	}
	f, err := l.fs.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("store: reopening WAL: %w", err)
	}
	l.wal = f
	return nil
}

// Compact atomically replaces the snapshot with the given records (the
// caller's compacted view of current state) and truncates the WAL. The
// records are renumbered 1..n — the caller may synthesize them without
// assigning sequence numbers — and future appends continue past both n
// and every sequence number issued before. Safe to call while appends are
// blocked on the same lock; the caller is
// responsible for ensuring the records reflect every acknowledged append
// (see serve.Manager's persist gate).
func (l *Log) Compact(records []Record) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.wal == nil {
		return fmt.Errorf("store: log is closed")
	}
	renumbered := make([]Record, len(records))
	for i, rec := range records {
		rec.Seq = uint64(i + 1)
		renumbered[i] = rec
	}
	// The sequence never goes backwards: the snapshot's Seq must dominate
	// every record a stale WAL could still hold (crash before the truncate
	// below), so Open can discard those records by comparison.
	if uint64(len(renumbered)) > l.seq {
		l.seq = uint64(len(renumbered))
	}
	if err := l.writeSnapshot(snapshotFile{Seq: l.seq, Records: renumbered}); err != nil {
		return err
	}
	// The snapshot now covers everything; empty the WAL. On failure the
	// stale bytes stay, but every record in them is shadowed by the
	// snapshot's sequence, so later appends and replays stay correct.
	if err := l.wal.Truncate(0); err != nil {
		return fmt.Errorf("store: truncating WAL: %w", err)
	}
	if _, err := l.wal.Seek(0, 0); err != nil {
		return fmt.Errorf("store: rewinding WAL: %w", err)
	}
	l.walBytes, l.walRecs = 0, 0
	l.signaled = false
	l.replayed = nil
	l.stats.Compactions++
	return nil
}

// writeSnapshot installs snap as snapshot.json and makes it durable: temp
// file, fsync, rename, and a directory fsync so the rename itself survives
// a power failure before the caller drops any WAL byte — otherwise the old
// snapshot could surface next to an already-empty WAL, losing acknowledged
// records.
func (l *Log) writeSnapshot(snap snapshotFile) error {
	if snap.Records == nil {
		snap.Records = []Record{}
	}
	// Not indented: indenting would rewrite each record's Data, and a
	// replay must hand back the bytes Append logged.
	raw, err := json.Marshal(snap)
	if err != nil {
		return fmt.Errorf("store: marshaling snapshot: %w", err)
	}
	tmp := filepath.Join(l.dir, snapshotName+".tmp")
	if err := writeFileSync(l.fs, tmp, raw); err != nil {
		return err
	}
	if err := l.fs.Rename(tmp, filepath.Join(l.dir, snapshotName)); err != nil {
		return fmt.Errorf("store: installing snapshot: %w", err)
	}
	return syncDir(l.fs, l.dir)
}

// syncDir fsyncs a directory, making previously-renamed entries durable.
func syncDir(fsys faultfs.FS, dir string) error {
	d, err := fsys.OpenFile(dir, os.O_RDONLY, 0)
	if err != nil {
		return fmt.Errorf("store: opening %s for sync: %w", dir, err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("store: syncing %s: %w", dir, err)
	}
	return nil
}

// writeFileSync writes data to path and fsyncs before closing, so the
// subsequent rename installs fully-durable bytes.
func writeFileSync(fsys faultfs.FS, path string, data []byte) error {
	f, err := fsys.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("store: creating %s: %w", path, err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return fmt.Errorf("store: writing %s: %w", path, err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("store: syncing %s: %w", path, err)
	}
	return f.Close()
}

// Stats returns a snapshot of the log's counters.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	st := l.stats
	st.WALRecords = l.walRecs
	st.WALBytes = l.walBytes
	st.Poisoned = l.wal == nil && l.lock != nil
	return st
}

// Close releases the WAL file handle and the directory lock. Further
// appends fail. The lock is released even when the WAL was already closed
// (or poisoned by a failed rollback), so a caller can reopen the directory.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	var err error
	if l.wal != nil {
		err = l.wal.Close()
		l.wal = nil
	}
	if l.lock != nil {
		l.lock.Close() // releases the flock
		l.lock = nil
	}
	return err
}
