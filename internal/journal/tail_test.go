package journal

import (
	"bytes"
	"errors"
	"testing"
	"time"
)

// tailRecords parses a TailSince payload back into records.
func tailRecords(t *testing.T, data []byte) []Record {
	t.Helper()
	var recs []Record
	for off := 0; off < len(data); {
		nl := bytes.IndexByte(data[off:], '\n')
		if nl < 0 {
			t.Fatalf("tail payload ends without newline: %q", data[off:])
		}
		rec, err := ParseFrame(data[off : off+nl+1])
		if err != nil {
			t.Fatalf("tail payload line: %v", err)
		}
		recs = append(recs, rec)
		off += nl + 1
	}
	return recs
}

func TestTailSinceReturnsRawFrames(t *testing.T) {
	dir := t.TempDir()
	j := mustOpen(t, dir, Options{Sync: SyncAlways})
	appendN(t, j, 5)

	data, horizon, last, err := j.TailSince(2)
	if err != nil {
		t.Fatal(err)
	}
	if horizon != 0 || last != 5 {
		t.Fatalf("horizon=%d last=%d, want 0, 5", horizon, last)
	}
	recs := tailRecords(t, data)
	if len(recs) != 3 {
		t.Fatalf("got %d records, want 3", len(recs))
	}
	for i, rec := range recs {
		if want := uint64(3 + i); rec.Seq != want {
			t.Errorf("record %d: seq %d, want %d", i, rec.Seq, want)
		}
	}

	// The frames must be the journal's literal bytes: replaying them into a
	// fresh journal reproduces the file byte for byte.
	dir2 := t.TempDir()
	j2 := mustOpen(t, dir2, Options{Sync: SyncAlways})
	full, _, _, err := j.TailSince(0)
	if err != nil {
		t.Fatal(err)
	}
	for off := 0; off < len(full); {
		nl := bytes.IndexByte(full[off:], '\n')
		if _, err := j2.AppendFrame(full[off : off+nl+1]); err != nil {
			t.Fatal(err)
		}
		off += nl + 1
	}
	got, _, _, err := j2.TailSince(0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, full) {
		t.Fatal("replica journal bytes differ from leader's")
	}
}

func TestTailSinceCaughtUp(t *testing.T) {
	j := mustOpen(t, t.TempDir(), Options{Sync: SyncAlways})
	appendN(t, j, 3)
	data, _, last, err := j.TailSince(3)
	if err != nil {
		t.Fatal(err)
	}
	if data != nil || last != 3 {
		t.Fatalf("data=%q last=%d, want empty, 3", data, last)
	}
	// A reader ahead of the log (a replica of a leader that lost unsynced
	// records in a crash) gets nothing; the caller detects last < from.
	data, _, last, err = j.TailSince(10)
	if err != nil || data != nil || last != 3 {
		t.Fatalf("data=%q last=%d err=%v, want empty, 3, nil", data, last, err)
	}
}

func TestTailSinceBelowCompactionHorizon(t *testing.T) {
	j := mustOpen(t, t.TempDir(), Options{Sync: SyncAlways})
	appendN(t, j, 10)
	if err := j.Compact([]byte(`{"state":"s"}`), 6); err != nil {
		t.Fatal(err)
	}
	// from=3 < horizon=6: records 4..6 are gone; the caller must ship a
	// snapshot instead.
	data, horizon, last, err := j.TailSince(3)
	if err != nil {
		t.Fatal(err)
	}
	if data != nil || horizon != 6 || last != 10 {
		t.Fatalf("data=%q horizon=%d last=%d, want empty, 6, 10", data, horizon, last)
	}
	// from exactly at the horizon is fine: the surviving tail follows it.
	data, _, _, err = j.TailSince(6)
	if err != nil {
		t.Fatal(err)
	}
	recs := tailRecords(t, data)
	if len(recs) != 4 || recs[0].Seq != 7 {
		t.Fatalf("got %d records starting at %d, want 4 starting at 7", len(recs), recs[0].Seq)
	}
}

func TestAppendFrameRejectsGapAndDuplicate(t *testing.T) {
	j := mustOpen(t, t.TempDir(), Options{Sync: SyncAlways})
	appendN(t, j, 2)

	frame := func(seq uint64) []byte {
		t.Helper()
		line, err := FrameRecord(Record{Seq: seq, Op: "op", Data: []byte(`{"n":1}`)})
		if err != nil {
			t.Fatal(err)
		}
		return line
	}

	if _, err := j.AppendFrame(frame(2)); !errors.Is(err, ErrDuplicateSeq) {
		t.Fatalf("seq 2 on a log at 2: err = %v, want ErrDuplicateSeq", err)
	}
	if _, err := j.AppendFrame(frame(1)); !errors.Is(err, ErrDuplicateSeq) {
		t.Fatalf("seq 1 on a log at 2: err = %v, want ErrDuplicateSeq", err)
	}
	if _, err := j.AppendFrame(frame(5)); !errors.Is(err, ErrSeqGap) {
		t.Fatalf("seq 5 on a log at 2: err = %v, want ErrSeqGap", err)
	}
	// Refusals must not move the log.
	if j.Seq() != 2 {
		t.Fatalf("seq after refusals = %d, want 2", j.Seq())
	}
	rec, err := j.AppendFrame(frame(3))
	if err != nil {
		t.Fatal(err)
	}
	if rec.Seq != 3 || j.Seq() != 3 {
		t.Fatalf("accepted seq %d, journal at %d, want 3, 3", rec.Seq, j.Seq())
	}
}

func TestAppendFrameRejectsCorruptFrame(t *testing.T) {
	j := mustOpen(t, t.TempDir(), Options{Sync: SyncAlways})
	line, err := FrameRecord(Record{Seq: 1, Op: "op"})
	if err != nil {
		t.Fatal(err)
	}
	line[12] ^= 0xff // flip a payload byte: CRC must catch it
	if _, err := j.AppendFrame(line); err == nil {
		t.Fatal("corrupt frame accepted")
	}
	if j.Seq() != 0 {
		t.Fatalf("seq after corrupt frame = %d, want 0", j.Seq())
	}
}

func TestResetToBootstrapsReplica(t *testing.T) {
	dir := t.TempDir()
	j := mustOpen(t, dir, Options{Sync: SyncAlways})
	appendN(t, j, 4) // stale local history a re-snapshot must discard

	state := []byte(`{"fresh":true}`)
	if err := j.ResetTo(state, 20); err != nil {
		t.Fatal(err)
	}
	if j.Seq() != 20 || j.CompactedThrough() != 20 || j.Offset() != 0 {
		t.Fatalf("seq=%d horizon=%d offset=%d, want 20, 20, 0", j.Seq(), j.CompactedThrough(), j.Offset())
	}
	// Tailing resumes cleanly after the snapshot point.
	line, err := FrameRecord(Record{Seq: 21, Op: "op", Data: []byte(`{"n":9}`)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.AppendFrame(line); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: the snapshot and the post-reset tail survive; the pre-reset
	// records are gone.
	j2 := mustOpen(t, dir, Options{})
	snap, seq, ok := j2.Snapshot()
	if !ok || seq != 20 || !bytes.Equal(snap, state) {
		t.Fatalf("snapshot = %q seq %d ok %v, want %q, 20, true", snap, seq, ok, state)
	}
	recs := j2.Records()
	if len(recs) != 1 || recs[0].Seq != 21 {
		t.Fatalf("replay tail = %+v, want one record at seq 21", recs)
	}
}

func TestChangedSignalsAfterAppend(t *testing.T) {
	j := mustOpen(t, t.TempDir(), Options{Sync: SyncAlways})
	ch := j.Changed()
	select {
	case <-ch:
		t.Fatal("changed channel closed before any append")
	default:
	}
	appendN(t, j, 1)
	select {
	case <-ch:
	default:
		t.Fatal("changed channel not closed after append")
	}
	// Re-arm: the next channel waits for the next append.
	ch2 := j.Changed()
	select {
	case <-ch2:
		t.Fatal("re-armed channel closed without a new append")
	default:
	}
	line, err := FrameRecord(Record{Seq: 2, Op: "op"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.AppendFrame(line); err != nil {
		t.Fatal(err)
	}
	select {
	case <-ch2:
	default:
		t.Fatal("changed channel not closed after AppendFrame")
	}
}

// TestResetToWakesChangedWaiters: a reader blocked on Changed (a record
// long-poll on a follower's journal) is released by the re-bootstrap's
// ResetTo at once, not when its own wait runs out.
func TestResetToWakesChangedWaiters(t *testing.T) {
	j := mustOpen(t, t.TempDir(), Options{Sync: SyncAlways})
	appendN(t, j, 3)
	ch := j.Changed()
	released := make(chan struct{})
	go func() {
		<-ch
		close(released)
	}()
	if err := j.ResetTo([]byte(`{"k":1}`), 10); err != nil {
		t.Fatal(err)
	}
	select {
	case <-released:
	case <-time.After(5 * time.Second):
		t.Fatal("ResetTo did not wake the Changed waiter")
	}
}

// TestOnChangeHookFollowsSuccessfulChanges: the hook behind the leader-wide
// change counter runs once per successful Append, AppendFrame and ResetTo,
// and not for a refused frame.
func TestOnChangeHookFollowsSuccessfulChanges(t *testing.T) {
	j := mustOpen(t, t.TempDir(), Options{Sync: SyncAlways})
	calls := 0
	j.SetOnChange(func() { calls++ })
	appendN(t, j, 2)
	if calls != 2 {
		t.Fatalf("after two appends: %d calls, want 2", calls)
	}
	line, err := FrameRecord(Record{Seq: 3, Op: "op"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.AppendFrame(line); err != nil {
		t.Fatal(err)
	}
	if _, err := j.AppendFrame(line); !errors.Is(err, ErrDuplicateSeq) {
		t.Fatalf("re-delivered frame: %v, want ErrDuplicateSeq", err)
	}
	if calls != 3 {
		t.Fatalf("after one accepted and one refused frame: %d calls, want 3", calls)
	}
	if err := j.ResetTo(nil, 9); err != nil {
		t.Fatal(err)
	}
	if calls != 4 {
		t.Fatalf("after ResetTo: %d calls, want 4", calls)
	}
}
