// Package journal implements the durability layer under the integration
// server: an append-only write-ahead log of JSONL records plus periodically
// compacted snapshots, both living in one data directory. Every mutating
// operation is appended (and optionally fsynced) before it is applied, so a
// process that crashes — or is killed — can rebuild its exact state by
// loading the last snapshot and replaying the journal tail.
//
// On-disk layout:
//
//	<dir>/journal.jsonl   one framed record per line (see below)
//	<dir>/snapshot.json   {"seq": N, "savedAt": ..., "state": <opaque JSON>}
//
// Each journal line is framed as
//
//	crc32(8 hex digits) SP <record JSON> LF
//
// where the checksum covers the JSON bytes. A torn or corrupted final
// record — the expected outcome of a crash mid-write — fails its checksum
// (or never reaches its newline) and is dropped on open; every complete
// record before it is recovered. Snapshots are written to a temporary file,
// fsynced and renamed, so they are atomic; records already covered by the
// snapshot carry a sequence number at or below the snapshot's and are
// skipped during replay, which makes a crash between the snapshot rename
// and the journal rewrite harmless.
//
// The package knows nothing about the operations it stores: records are an
// (op, opaque JSON) pair with a sequence number, and snapshots are opaque
// bytes. The server layers its own semantics on top.
package journal

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"
)

// Error wraps every failure returned by the journal's mutating methods
// (Append, Sync, Compact, Close), so callers can recognize a durability
// failure with errors.As instead of matching message text — messages carry
// user-controlled names like schema identifiers.
type Error struct{ Err error }

func (e *Error) Error() string { return e.Err.Error() }
func (e *Error) Unwrap() error { return e.Err }

// IsError reports whether err is (or wraps) a journal failure.
func IsError(err error) bool {
	var je *Error
	return errors.As(err, &je)
}

// Replica-append sentinels. AppendFrame refuses records that do not carry
// exactly the next sequence number; callers classify the refusal with
// errors.Is and react — skip a duplicate, re-snapshot on a gap.
var (
	// ErrSeqGap marks an AppendFrame whose record skips ahead of the log.
	ErrSeqGap = errors.New("journal: sequence gap")
	// ErrDuplicateSeq marks an AppendFrame at or below the log's sequence.
	ErrDuplicateSeq = errors.New("journal: duplicate sequence")
)

// wrapErr tags err as a journal failure (idempotently; nil stays nil).
func wrapErr(err error) error {
	if err == nil || IsError(err) {
		return err
	}
	return &Error{Err: err}
}

const (
	journalName  = "journal.jsonl"
	snapshotName = "snapshot.json"
)

// SyncPolicy says when appended records are fsynced to stable storage.
type SyncPolicy int

// The fsync policies.
const (
	// SyncAlways fsyncs after every append: no acknowledged write is ever
	// lost, at the cost of one fsync per mutation.
	SyncAlways SyncPolicy = iota
	// SyncInterval fsyncs at most once per Options.SyncInterval, bounding
	// the window of acknowledged-but-unsynced records after an OS crash.
	// (A process crash alone loses nothing: the records are already in
	// the page cache.)
	SyncInterval
	// SyncNever leaves syncing to the operating system.
	SyncNever
)

// String names the policy as the -fsync flag spells it.
func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncInterval:
		return "interval"
	case SyncNever:
		return "never"
	}
	return fmt.Sprintf("SyncPolicy(%d)", int(p))
}

// ParseSyncPolicy reads a -fsync flag value.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "always":
		return SyncAlways, nil
	case "interval":
		return SyncInterval, nil
	case "never":
		return SyncNever, nil
	}
	return 0, fmt.Errorf("journal: bad fsync policy %q (want always, interval or never)", s)
}

// Hooks injects faults into the journal's file operations; tests use them
// to kill writes mid-record, fill the disk and break fsync. Production code
// leaves them nil.
type Hooks struct {
	// BeforeAppend sees every framed line about to be written and returns
	// how many of its bytes to actually write plus an error. (len(line),
	// nil) is a no-op; (n < len(line), err) simulates a torn write — the
	// prefix hits the file, the append fails; (0, err) simulates a full
	// disk that accepted nothing.
	BeforeAppend func(line []byte) (int, error)
	// BeforeSync, when it returns an error, fails the fsync.
	BeforeSync func() error
}

// Options parameterizes Open.
type Options struct {
	Sync SyncPolicy
	// SyncInterval is the minimum spacing between fsyncs under
	// SyncInterval (default 100ms).
	SyncInterval time.Duration
	Hooks        Hooks
}

// Record is one journaled operation.
type Record struct {
	Seq  uint64          `json:"seq"`
	Op   string          `json:"op"`
	Data json.RawMessage `json:"data,omitempty"`
}

type snapshotFile struct {
	Seq     uint64          `json:"seq"`
	SavedAt time.Time       `json:"savedAt"`
	State   json.RawMessage `json:"state"`
}

// Journal is an open write-ahead log. All methods are safe for concurrent
// use.
type Journal struct {
	dir  string
	opts Options

	mu     sync.Mutex
	f      *os.File // guarded by mu
	offset int64    // guarded by mu; file length through the last complete record
	seq    uint64   // guarded by mu
	broken error    // guarded by mu; sticky failure: appends are refused once set

	snapSeq   uint64    // guarded by mu
	snapState []byte    // guarded by mu
	snapTime  time.Time // guarded by mu

	records      []Record // guarded by mu; replay tail loaded by Open
	droppedBytes int64    // guarded by mu; torn/corrupt tail bytes discarded by Open

	// tailFirst and tailOffs index the records currently in the journal
	// file: the file always holds a contiguous ascending run of sequence
	// numbers, and the record with sequence tailFirst+i starts at byte
	// offset tailOffs[i]. TailSince uses the index to read exactly the
	// requested range instead of rescanning the whole file per call.
	tailFirst uint64  // guarded by mu
	tailOffs  []int64 // guarded by mu

	appends      uint64    // guarded by mu
	sinceCompact uint64    // guarded by mu
	lastSync     time.Time // guarded by mu
	dirty        bool      // guarded by mu

	// changed, when non-nil, is closed after the next successful append or
	// reset (and replaced lazily by Changed); long-poll tail readers wait on
	// it.
	changed chan struct{} // guarded by mu
	// onChange, when set, is called at the same moments, after mu is
	// released.
	onChange func() // guarded by mu

	// observe, when set, is called after every append attempt with the
	// fsync duration (zero when no sync ran) and the append's error.
	observe func(fsync time.Duration, err error) // guarded by mu
}

// Open creates the directory if needed, loads the snapshot, scans the
// journal — dropping a torn or corrupt tail — and returns a journal ready
// for appends. The recovered snapshot and records are available through
// Snapshot and Records.
//
//sit:exclusive
func Open(dir string, opts Options) (*Journal, error) {
	if opts.SyncInterval <= 0 {
		opts.SyncInterval = 100 * time.Millisecond
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	j := &Journal{dir: dir, opts: opts, snapTime: time.Now(), lastSync: time.Now()}

	snapPath := filepath.Join(dir, snapshotName)
	if data, err := os.ReadFile(snapPath); err == nil {
		var snap snapshotFile
		if err := json.Unmarshal(data, &snap); err != nil {
			return nil, fmt.Errorf("journal: corrupt snapshot %s: %w", snapPath, err)
		}
		j.snapSeq, j.snapState = snap.Seq, snap.State
		if !snap.SavedAt.IsZero() {
			j.snapTime = snap.SavedAt
		}
		j.seq = snap.Seq
	} else if !os.IsNotExist(err) {
		return nil, fmt.Errorf("journal: %w", err)
	}

	path := filepath.Join(dir, journalName)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	j.f = f
	if err := j.scan(); err != nil {
		// Open is failing; the scan error is what the caller needs to see,
		// and nothing was written through this handle.
		_ = f.Close()
		return nil, err
	}
	return j, nil
}

// scan reads the journal from the start, keeping complete records newer
// than the snapshot and truncating anything after the first bad frame. It
// runs from Open, before the journal is shared.
//
//sit:exclusive
func (j *Journal) scan() error {
	data, err := io.ReadAll(j.f)
	if err != nil {
		return fmt.Errorf("journal: read %s: %w", j.f.Name(), err)
	}
	valid := int64(0)
	for off := 0; off < len(data); {
		nl := bytes.IndexByte(data[off:], '\n')
		if nl < 0 {
			break // torn final record: no newline
		}
		rec, err := parseLine(data[off : off+nl])
		if err != nil {
			break // corrupt frame: drop it and everything after
		}
		if len(j.tailOffs) == 0 {
			j.tailFirst = rec.Seq
		}
		j.tailOffs = append(j.tailOffs, int64(off))
		off += nl + 1
		valid = int64(off)
		if rec.Seq <= j.snapSeq {
			continue // already covered by the snapshot
		}
		j.records = append(j.records, rec)
		if rec.Seq > j.seq {
			j.seq = rec.Seq
		}
	}
	j.droppedBytes = int64(len(data)) - valid
	j.offset = valid
	if j.droppedBytes > 0 {
		if err := j.f.Truncate(valid); err != nil {
			return fmt.Errorf("journal: truncate torn tail: %w", err)
		}
	}
	if _, err := j.f.Seek(valid, io.SeekStart); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	return nil
}

// frameLine renders a record as its checksummed journal line.
func frameLine(rec Record) ([]byte, error) {
	payload, err := json.Marshal(rec)
	if err != nil {
		return nil, fmt.Errorf("journal: encode record: %w", err)
	}
	line := make([]byte, 0, len(payload)+10)
	line = fmt.Appendf(line, "%08x ", crc32.ChecksumIEEE(payload))
	line = append(line, payload...)
	line = append(line, '\n')
	return line, nil
}

// FrameRecord renders a record in the journal's on-disk framing — also the
// wire format of the replication stream.
func FrameRecord(rec Record) ([]byte, error) { return frameLine(rec) }

// ParseFrame validates one framed line (trailing newline optional) and
// returns its record. The CRC check doubles as the wire-integrity check
// replication relies on.
func ParseFrame(line []byte) (Record, error) {
	return parseLine(bytes.TrimSuffix(line, []byte{'\n'}))
}

// parseLine validates one journal line (without its newline).
func parseLine(line []byte) (Record, error) {
	if len(line) < 10 || line[8] != ' ' {
		return Record{}, fmt.Errorf("journal: malformed frame")
	}
	want, err := strconv.ParseUint(string(line[:8]), 16, 32)
	if err != nil {
		return Record{}, fmt.Errorf("journal: malformed checksum: %w", err)
	}
	payload := line[9:]
	if got := crc32.ChecksumIEEE(payload); got != uint32(want) {
		return Record{}, fmt.Errorf("journal: checksum mismatch")
	}
	var rec Record
	if err := json.Unmarshal(payload, &rec); err != nil {
		return Record{}, fmt.Errorf("journal: decode record: %w", err)
	}
	return rec, nil
}

// SetObserver installs the append/fsync metrics hook (call before the
// journal is shared). The observer must not call back into the journal.
func (j *Journal) SetObserver(fn func(fsync time.Duration, err error)) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.observe = fn
}

// Append journals one operation, fsyncing per the configured policy, and
// returns the record's sequence number. The record is durable (to the
// policy's guarantee) before Append returns, so callers append first and
// apply to memory second. A failed append — including a write that landed
// but whose fsync failed — leaves the journal consistent when the record
// can be rolled back, so the on-disk log only ever holds acknowledged
// operations; when rollback itself fails, the journal turns sticky-broken
// and every later append fails fast.
func (j *Journal) Append(op string, v any) (uint64, error) {
	data, err := json.Marshal(v)
	if err != nil {
		return 0, wrapErr(fmt.Errorf("journal: encode %s: %w", op, err))
	}
	j.mu.Lock()
	seq, fsync, err := j.appendLocked(op, data)
	observe, onChange := j.observe, j.onChange
	j.mu.Unlock()
	if observe != nil {
		observe(fsync, err)
	}
	if err == nil && onChange != nil {
		onChange()
	}
	return seq, wrapErr(err)
}

//sit:locked mu
func (j *Journal) appendLocked(op string, data []byte) (uint64, time.Duration, error) {
	if j.broken != nil {
		return 0, 0, j.broken
	}
	rec := Record{Seq: j.seq + 1, Op: op, Data: data}
	line, err := frameLine(rec)
	if err != nil {
		return 0, 0, err
	}
	fsync, err := j.writeLineLocked(op, rec.Seq, line)
	if err != nil {
		return 0, fsync, err
	}
	return rec.Seq, fsync, nil
}

// writeLineLocked writes one pre-framed line carrying seq as its record's
// sequence number, fsyncing per policy, with the shared rollback discipline:
// a torn write or failed fsync takes the record back out of the log, and a
// failed rollback turns the journal sticky-broken.
//
//sit:locked mu
func (j *Journal) writeLineLocked(op string, seq uint64, line []byte) (time.Duration, error) {
	prev := j.offset
	n := len(line)
	var hookErr error
	if hook := j.opts.Hooks.BeforeAppend; hook != nil {
		n, hookErr = hook(line)
		if n > len(line) {
			n = len(line)
		}
	}
	var (
		wrote int
		err   error
	)
	if n > 0 {
		wrote, err = j.f.Write(line[:n])
	}
	if hookErr != nil && err == nil {
		err = hookErr
	}
	if err == nil && n < len(line) {
		err = io.ErrShortWrite
	}
	if err != nil {
		// Roll the torn prefix back so the log stays well-formed; if even
		// that fails the journal is done for.
		if wrote > 0 {
			j.rollbackLocked(prev)
		}
		return 0, fmt.Errorf("journal: append %s: %w", op, err)
	}
	j.offset += int64(len(line))
	j.seq = seq
	j.appends++
	j.sinceCompact++
	j.dirty = true
	fsync, serr := j.maybeSyncLocked(false)
	if serr != nil {
		// The record hit the file but stable storage never confirmed it, and
		// the caller will treat the operation as not persisted — so take the
		// record back out of the log. Leaving it would resurrect a rejected
		// operation on the next replay, and a caller's retry would then
		// collide with it (duplicate schema, duplicate job ID).
		if j.rollbackLocked(prev) {
			j.seq = seq - 1
			j.appends--
			j.sinceCompact--
		}
		return fsync, fmt.Errorf("journal: sync after %s: %w", op, serr)
	}
	if len(j.tailOffs) == 0 {
		j.tailFirst = seq
	}
	j.tailOffs = append(j.tailOffs, prev)
	j.notifyChangedLocked()
	return fsync, nil
}

// notifyChangedLocked wakes every Changed waiter after a successful append
// or reset.
//
//sit:locked mu
func (j *Journal) notifyChangedLocked() {
	if j.changed != nil {
		close(j.changed)
		j.changed = nil
	}
}

// SetOnChange installs a hook called after every successful append
// (Append or AppendFrame) and every ResetTo, once the new sequence number
// is visible and the journal's lock is released.
func (j *Journal) SetOnChange(fn func()) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.onChange = fn
}

// Changed returns a channel that is closed after the next successful
// append or reset, for long-poll tail readers. Grab the channel, read the
// tail, and wait on the channel only if the tail came back empty — re-arm
// by calling Changed again after each wake-up.
func (j *Journal) Changed() <-chan struct{} {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.changed == nil {
		j.changed = make(chan struct{})
	}
	return j.changed
}

// AppendFrame appends one pre-framed record line verbatim — the replica's
// append path: the line arrives from a leader's journal stream, is
// CRC-verified here, and must carry exactly the next sequence number. A
// record at or below the current sequence fails with ErrDuplicateSeq (the
// caller skips it: re-delivery after a reconnect); one skipping ahead
// fails with ErrSeqGap (the caller falls back to a snapshot). Appending
// the leader's bytes untouched keeps a replica's journal byte-identical
// to its leader's.
func (j *Journal) AppendFrame(line []byte) (Record, error) {
	rec, err := ParseFrame(line)
	if err != nil {
		return Record{}, wrapErr(err)
	}
	framed := line
	if len(framed) == 0 || framed[len(framed)-1] != '\n' {
		framed = append(append(make([]byte, 0, len(framed)+1), framed...), '\n')
	}
	var (
		fsync   time.Duration
		written bool
	)
	j.mu.Lock()
	switch {
	case j.broken != nil:
		err = j.broken
	case rec.Seq <= j.seq:
		err = fmt.Errorf("%w: record %d at or below log sequence %d", ErrDuplicateSeq, rec.Seq, j.seq)
	case rec.Seq != j.seq+1:
		err = fmt.Errorf("%w: record %d does not follow log sequence %d", ErrSeqGap, rec.Seq, j.seq)
	default:
		written = true
		fsync, err = j.writeLineLocked(rec.Op, rec.Seq, framed)
	}
	observe, onChange := j.observe, j.onChange
	j.mu.Unlock()
	if observe != nil && written {
		observe(fsync, err)
	}
	if written && err == nil && onChange != nil {
		onChange()
	}
	return rec, wrapErr(err)
}

// TailSince reads the raw framed lines of every record with sequence
// number greater than from, concatenated in log order — the leader side of
// the replication stream. horizon is the compaction horizon (the
// snapshot's sequence number) and last the log's current sequence; when
// from is below horizon the requested records no longer exist and data is
// nil — the caller must ship a snapshot instead.
//
// Every follower poll lands here while the journal lock is held; the only
// permitted allocation is the result buffer itself, and
// TestTailSinceAllocs holds a read to exactly that one allocation.
func (j *Journal) TailSince(from uint64) (data []byte, horizon, last uint64, err error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	horizon, last = j.snapSeq, j.seq
	if j.f == nil {
		return nil, horizon, last, wrapErr(errors.New("journal: closed"))
	}
	if from < horizon || from >= last {
		return nil, horizon, last, nil
	}
	// The tail index maps the first requested sequence number to its byte
	// offset, so only the requested range is read — not the whole file.
	// Reading under mu is safe against Compact's rename (same lock), and
	// the j.offset fence keeps torn in-flight bytes out of the stream. (The
	// page cache makes unsynced-but-written records visible, which is
	// correct: they are acknowledged appends.)
	if from+1 < j.tailFirst || from+1-j.tailFirst >= uint64(len(j.tailOffs)) {
		return nil, horizon, last, wrapErr(fmt.Errorf(
			"journal: tail: no index entry for record %d (file holds %d records from %d)",
			from+1, len(j.tailOffs), j.tailFirst))
	}
	start := j.tailOffs[from+1-j.tailFirst]
	data = make([]byte, j.offset-start)
	if _, err := j.f.ReadAt(data, start); err != nil {
		return nil, horizon, last, wrapErr(fmt.Errorf("journal: tail: %w", err))
	}
	return data, horizon, last, nil
}

// rollbackLocked truncates the log to offset after a failed append,
// reporting whether the file was restored; on truncate failure the journal
// turns sticky-broken, since its in-memory view no longer matches disk.
//
//sit:locked mu
func (j *Journal) rollbackLocked(offset int64) bool {
	if terr := j.f.Truncate(offset); terr != nil {
		j.broken = wrapErr(fmt.Errorf("journal: unrecoverable after failed append: %w", terr))
		return false
	}
	_, _ = j.f.Seek(offset, io.SeekStart)
	j.offset = offset
	return true
}

// maybeSyncLocked fsyncs per policy (or unconditionally when force is set),
// returning how long the fsync took.
//
//sit:locked mu
func (j *Journal) maybeSyncLocked(force bool) (time.Duration, error) {
	if !j.dirty {
		return 0, nil
	}
	switch {
	case force || j.opts.Sync == SyncAlways:
	case j.opts.Sync == SyncInterval && time.Since(j.lastSync) >= j.opts.SyncInterval:
	default:
		return 0, nil
	}
	if hook := j.opts.Hooks.BeforeSync; hook != nil {
		if err := hook(); err != nil {
			return 0, err
		}
	}
	start := time.Now()
	if err := j.f.Sync(); err != nil {
		return 0, err
	}
	j.lastSync = time.Now()
	j.dirty = false
	return time.Since(start), nil
}

// Sync forces an fsync regardless of policy.
func (j *Journal) Sync() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.broken != nil {
		return j.broken
	}
	_, err := j.maybeSyncLocked(true)
	return wrapErr(err)
}

// Compact writes state as the new snapshot covering every record with
// sequence number at most uptoSeq, then rewrites the journal keeping only
// newer records. The caller guarantees that state reflects exactly the
// operations through uptoSeq; records appended concurrently (they carry
// higher sequence numbers) survive the rewrite.
func (j *Journal) Compact(state []byte, uptoSeq uint64) (err error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	defer func() { err = wrapErr(err) }()
	if j.broken != nil {
		return j.broken
	}
	if uptoSeq < j.snapSeq {
		// A snapshot covering more of the journal is already published;
		// overwriting it with this older capture would lose the records
		// between the two sequence numbers, which the previous rewrite
		// already truncated. Stale captures happen when two compactions
		// race (manual /compact against the background loop).
		return nil
	}
	// 1. Atomically publish the snapshot.
	snap, err := json.Marshal(snapshotFile{Seq: uptoSeq, SavedAt: time.Now().UTC(), State: state})
	if err != nil {
		return fmt.Errorf("journal: encode snapshot: %w", err)
	}
	snapPath := filepath.Join(j.dir, snapshotName)
	if err := writeFileSync(snapPath, snap); err != nil {
		return err
	}

	// 2. Rewrite the journal without the records the snapshot covers. A
	// crash anywhere in here is safe: replay skips records at or below the
	// published snapshot's sequence number.
	if _, err := j.maybeSyncLocked(true); err != nil {
		return fmt.Errorf("journal: sync before compact: %w", err)
	}
	path := filepath.Join(j.dir, journalName)
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	var (
		keep     []byte
		keepOffs []int64
	)
	for off := 0; off < len(data); {
		nl := bytes.IndexByte(data[off:], '\n')
		if nl < 0 {
			break
		}
		line := data[off : off+nl+1]
		off += nl + 1
		rec, err := parseLine(line[:len(line)-1])
		if err != nil {
			break
		}
		if rec.Seq > uptoSeq {
			keepOffs = append(keepOffs, int64(len(keep)))
			keep = append(keep, line...)
		}
	}
	if err := writeFileSync(path+".tmp", keep); err != nil {
		return err
	}
	if err := os.Rename(path+".tmp", path); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	if err := syncDir(j.dir); err != nil {
		return err
	}
	nf, err := os.OpenFile(path, os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		j.broken = wrapErr(fmt.Errorf("journal: reopen after compact: %w", err))
		return j.broken
	}
	// The old handle points at the pre-rename inode, already synced and now
	// unlinked; a close failure cannot lose data the new file holds.
	_ = j.f.Close()
	j.f = nf
	j.offset = int64(len(keep))
	j.tailFirst, j.tailOffs = uptoSeq+1, keepOffs
	j.snapSeq, j.snapState, j.snapTime = uptoSeq, state, time.Now()
	j.sinceCompact = 0
	j.dirty = false
	return nil
}

// writeFileSync writes data to path and fsyncs it before returning.
func writeFileSync(path string, data []byte) error {
	tmp := path
	final := ""
	if filepath.Ext(path) != ".tmp" {
		tmp, final = path+".tmp", path
	}
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	if _, err := f.Write(data); err != nil {
		// The write error is authoritative; the temp file is abandoned.
		_ = f.Close()
		return fmt.Errorf("journal: write %s: %w", tmp, err)
	}
	if err := f.Sync(); err != nil {
		// The sync error is authoritative; the temp file is abandoned.
		_ = f.Close()
		return fmt.Errorf("journal: sync %s: %w", tmp, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("journal: close %s: %w", tmp, err)
	}
	if final != "" {
		if err := os.Rename(tmp, final); err != nil {
			return fmt.Errorf("journal: %w", err)
		}
		// The rename is atomic but not durable until the directory entry
		// itself is on disk; without this a power loss can forget the
		// rename even though both file contents were synced.
		if err := syncDir(filepath.Dir(final)); err != nil {
			return err
		}
	}
	return nil
}

// syncDir fsyncs a directory, making the renames inside it durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	serr := d.Sync()
	cerr := d.Close()
	if serr != nil {
		return fmt.Errorf("journal: sync dir %s: %w", dir, serr)
	}
	if cerr != nil {
		return fmt.Errorf("journal: %w", cerr)
	}
	return nil
}

// ResetTo discards the journal's entire contents and publishes state as a
// snapshot at seq — the replica-bootstrap path, taken when the leader has
// compacted past the replica's position (or the replica is brand new). The
// journal is truncated before the snapshot is written: a crash between the
// two steps leaves an older-but-consistent snapshot with an empty log,
// which the next bootstrap simply overwrites. Like an append, a reset wakes
// the Changed waiters and calls the OnChange hook.
func (j *Journal) ResetTo(state []byte, seq uint64) error {
	j.mu.Lock()
	err := j.resetLocked(state, seq)
	onChange := j.onChange
	j.mu.Unlock()
	if err == nil && onChange != nil {
		onChange()
	}
	return err
}

//sit:locked mu
func (j *Journal) resetLocked(state []byte, seq uint64) error {
	if j.broken != nil {
		return j.broken
	}
	if j.f == nil {
		return wrapErr(errors.New("journal: closed"))
	}
	if err := j.f.Truncate(0); err != nil {
		return wrapErr(fmt.Errorf("journal: reset: %w", err))
	}
	if _, err := j.f.Seek(0, io.SeekStart); err != nil {
		return wrapErr(fmt.Errorf("journal: reset: %w", err))
	}
	if err := j.f.Sync(); err != nil {
		return wrapErr(fmt.Errorf("journal: reset: %w", err))
	}
	snap, err := json.Marshal(snapshotFile{Seq: seq, SavedAt: time.Now().UTC(), State: state})
	if err != nil {
		return wrapErr(fmt.Errorf("journal: encode snapshot: %w", err))
	}
	if err := writeFileSync(filepath.Join(j.dir, snapshotName), snap); err != nil {
		return wrapErr(err)
	}
	j.offset = 0
	j.seq = seq
	j.tailFirst, j.tailOffs = 0, nil
	j.snapSeq, j.snapState, j.snapTime = seq, state, time.Now()
	j.records = nil
	j.sinceCompact = 0
	j.dirty = false
	// A reader long-polling for records after the old position must learn
	// now that they were reset away, not when its wait runs out.
	j.notifyChangedLocked()
	return nil
}

// Snapshot returns the state bytes loaded from the snapshot file at Open
// (or written by the latest Compact), with ok false when none exists.
func (j *Journal) Snapshot() (state []byte, seq uint64, ok bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.snapState, j.snapSeq, j.snapState != nil
}

// Records returns the replay tail recovered by Open: every complete record
// newer than the snapshot, in log order.
func (j *Journal) Records() []Record {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.records
}

// DroppedBytes reports how many torn or corrupt tail bytes Open discarded.
func (j *Journal) DroppedBytes() int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.droppedBytes
}

// Seq returns the last assigned sequence number.
func (j *Journal) Seq() uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.seq
}

// CompactedThrough returns the compaction horizon: the sequence number of
// the current snapshot. Records at or below it exist only inside the
// snapshot; a replica asking to resume from below it must re-bootstrap.
func (j *Journal) CompactedThrough() uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.snapSeq
}

// Offset returns the journal file's length through the last complete
// record — the byte position replication lag is measured against.
func (j *Journal) Offset() int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.offset
}

// Appends returns the number of records appended since Open.
func (j *Journal) Appends() uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.appends
}

// SinceCompact returns the number of records appended since the last
// compaction (or Open), the compaction trigger.
func (j *Journal) SinceCompact() uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.sinceCompact
}

// SnapshotTime returns when the current snapshot was written (the open
// time when there is none), for the snapshot-age gauge.
func (j *Journal) SnapshotTime() time.Time {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.snapTime
}

// Close syncs (best effort) and closes the journal file.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	_, serr := j.maybeSyncLocked(true)
	cerr := j.f.Close()
	j.f = nil
	j.broken = wrapErr(fmt.Errorf("journal: closed"))
	if serr != nil {
		return wrapErr(serr)
	}
	return wrapErr(cerr)
}

// CloseAbrupt closes the journal file without syncing — the crash-test
// hook: whatever the OS has is what the next Open sees.
func (j *Journal) CloseAbrupt() {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f != nil {
		// Deliberately unsynced and unchecked: the point is to model a
		// crash, so whatever didn't reach the OS is meant to be lost.
		_ = j.f.Close()
		j.f = nil
	}
	j.broken = wrapErr(fmt.Errorf("journal: closed"))
}
