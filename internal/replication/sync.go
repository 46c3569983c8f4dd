package replication

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/journal"
)

// Target is the follower side of a replication stream: the consumer that
// owns the replica's journal and in-memory state. The server implements it
// on top of its recovery (//sit:replay) paths; tests implement it in a few
// lines. Implementations must journal each frame before applying it — the
// same write-ahead discipline mutations follow on the leader.
type Target interface {
	// AppliedSeq returns the replica's last applied sequence number for the
	// workspace, creating an empty replica if the workspace is new. It
	// returns ErrNeedsSnapshot when the replica must be rebuilt from a
	// snapshot before it can tail.
	AppliedSeq(ws string) (uint64, error)
	// Bootstrap replaces the replica wholesale with a verified snapshot —
	// the catch-up path when the leader compacted past the replica.
	Bootstrap(ws string, snap Snapshot) error
	// ApplyFrame journals one raw frame line and applies its record. A
	// journal.ErrDuplicateSeq refusal is harmless re-delivery; any other
	// error aborts the batch. A frame journaled by an earlier call whose
	// apply failed is not a duplicate: its re-delivery must be applied.
	ApplyFrame(ws string, line []byte, rec Record) error
}

// Record aliases the journal's record type so Target implementations
// outside the server don't import the journal package for one name.
type Record = journal.Record

// Progress reports what one SyncWorkspace round did.
type Progress struct {
	// Applied counts records applied this round (duplicates excluded).
	Applied int
	// Bytes counts the raw frame bytes applied this round.
	Bytes int64
	// AppliedSeq is the replica's sequence number after the round.
	AppliedSeq uint64
	// LeaderSeq is the leader's sequence number when the batch was cut;
	// LeaderSeq - AppliedSeq is the replica's lag in records.
	LeaderSeq uint64
	// LeaderOffset is the leader journal's byte length when the batch was
	// cut, for byte-lag accounting.
	LeaderOffset int64
	// Bootstrapped reports that the round shipped a full snapshot (first
	// contact, compaction fallback, or divergence repair).
	Bootstrapped bool
}

// SyncWorkspace advances one workspace replica by one round: fetch the tail
// after the replica's position (long-polling up to wait when already caught
// up) and apply it frame by frame. It transparently falls back to snapshot
// bootstrap in four cases: the target asks for one (ErrNeedsSnapshot), the
// leader compacted past the replica (ErrCompacted), the stream skips ahead
// of the replica (journal.ErrSeqGap — the replica's journal lost history),
// or the leader's sequence runs behind the replica's (the leader lost
// acknowledged records in a crash, so the histories diverged and the
// replica must be rebuilt).
func SyncWorkspace(ctx context.Context, c *Client, t Target, ws string, wait time.Duration) (Progress, error) {
	var p Progress
	applied, err := t.AppliedSeq(ws)
	switch {
	case errors.Is(err, ErrNeedsSnapshot):
		if p, err = bootstrap(ctx, c, t, ws, p); err != nil {
			return p, err
		}
	case err != nil:
		return p, fmt.Errorf("replication: %s: %w", ws, err)
	default:
		p.AppliedSeq = applied
	}

	frames, err := c.Records(ctx, ws, p.AppliedSeq, wait)
	if errors.Is(err, ErrCompacted) {
		if p, err = bootstrap(ctx, c, t, ws, p); err != nil {
			return p, err
		}
		frames, err = c.Records(ctx, ws, p.AppliedSeq, 0)
	}
	if err != nil {
		return p, err
	}
	if frames.LeaderSeq < p.AppliedSeq {
		// The leader answers for fewer records than the replica holds: the
		// leader crashed and lost unsynced-but-streamed records, so the two
		// histories have diverged. Rebuild from the leader's truth.
		if p, err = bootstrap(ctx, c, t, ws, p); err != nil {
			return p, err
		}
		return p, nil
	}
	p.LeaderSeq = frames.LeaderSeq
	p.LeaderOffset = frames.LeaderOffset

	off := 0
	for _, rec := range frames.Records {
		// Re-slice the raw line for this record; Records and Lines were
		// built from the same buffer in lockstep.
		n := frameLen(frames.Lines[off:])
		line := frames.Lines[off : off+n]
		off += n
		err := t.ApplyFrame(ws, line, rec)
		switch {
		case errors.Is(err, journal.ErrDuplicateSeq):
			continue // harmless re-delivery after a reconnect
		case errors.Is(err, journal.ErrSeqGap):
			// The replica's journal is behind the stream (local history was
			// lost); a snapshot resynchronizes it.
			return bootstrap(ctx, c, t, ws, p)
		case err != nil:
			return p, fmt.Errorf("replication: %s: apply record %d: %w", ws, rec.Seq, err)
		}
		p.Applied++
		p.Bytes += int64(n)
		p.AppliedSeq = rec.Seq
	}
	return p, nil
}

// bootstrap ships a full snapshot into the target and updates the progress
// to the snapshot's position.
func bootstrap(ctx context.Context, c *Client, t Target, ws string, p Progress) (Progress, error) {
	snap, err := c.Snapshot(ctx, ws)
	if err != nil {
		return p, err
	}
	if err := t.Bootstrap(ws, snap); err != nil {
		return p, fmt.Errorf("replication: %s: bootstrap: %w", ws, err)
	}
	p.Bootstrapped = true
	p.AppliedSeq = snap.Seq
	if p.LeaderSeq < snap.Seq {
		p.LeaderSeq = snap.Seq
	}
	return p, nil
}

// frameLen returns the length of the first frame line in buf, including its
// newline. The caller guarantees buf starts at a frame boundary and holds
// at least one complete line (Client.Records verified the framing).
func frameLen(buf []byte) int {
	for i, b := range buf {
		if b == '\n' {
			return i + 1
		}
	}
	return len(buf)
}
