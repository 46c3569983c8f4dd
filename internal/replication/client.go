package replication

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"repro/internal/journal"
)

// Stream-classification errors. Callers branch on them with errors.Is.
var (
	// ErrCompacted reports that the leader compacted past the requested
	// sequence number (HTTP 410): the follower must re-bootstrap from a
	// snapshot.
	ErrCompacted = errors.New("replication: leader compacted past requested sequence")
	// ErrNotLeader reports that the remote end refused because it is not
	// serving as a leader (HTTP 421).
	ErrNotLeader = errors.New("replication: remote server is not the leader")
	// ErrNoWorkspace reports that the leader has no such workspace (HTTP
	// 404) — it was deleted; the follower drops its replica.
	ErrNoWorkspace = errors.New("replication: workspace not found on leader")
	// ErrNeedsSnapshot is what a Target's AppliedSeq returns when the
	// replica's local state cannot be trusted (its journal did not replay
	// at start-up): SyncWorkspace bootstraps it from a snapshot first.
	ErrNeedsSnapshot = errors.New("replication: replica needs a snapshot")
)

// Frames is one batch of the record stream: the raw journal bytes (what the
// follower appends) alongside their parsed records, plus the leader's
// position when the batch was cut.
type Frames struct {
	// Lines holds the concatenated raw frame lines, CRC-verified.
	Lines []byte
	// Records are the parsed lines, in order.
	Records []journal.Record
	// LeaderSeq is the leader journal's sequence number at response time.
	LeaderSeq uint64
	// Horizon is the leader's compaction horizon at response time.
	Horizon uint64
	// LeaderOffset is the leader journal's byte length at response time (0
	// when the leader predates the header).
	LeaderOffset int64
}

// Client talks to a leader's replication API.
type Client struct {
	base string
	hc   *http.Client
}

// NewClient returns a client for the leader at base (scheme://host[:port],
// no trailing path). A nil hc uses http.DefaultClient.
func NewClient(base string, hc *http.Client) *Client {
	if hc == nil {
		hc = http.DefaultClient
	}
	return &Client{base: strings.TrimRight(base, "/"), hc: hc}
}

// Base returns the leader URL the client was built with.
func (c *Client) Base() string { return c.base }

// classify maps an error response to a typed error, consuming the body.
func classify(resp *http.Response) error {
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<12))
	switch resp.StatusCode {
	case http.StatusGone:
		return ErrCompacted
	case http.StatusMisdirectedRequest:
		return ErrNotLeader
	case http.StatusNotFound:
		return ErrNoWorkspace
	}
	msg := strings.TrimSpace(string(body))
	if msg == "" {
		msg = resp.Status
	}
	return fmt.Errorf("replication: leader returned %d: %s", resp.StatusCode, msg)
}

func (c *Client) get(ctx context.Context, path string) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return nil, fmt.Errorf("replication: %w", err)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("replication: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		defer resp.Body.Close()
		return nil, classify(resp)
	}
	return resp, nil
}

// Workspaces lists the leader's workspaces and their journal positions.
func (c *Client) Workspaces(ctx context.Context) ([]WorkspaceStatus, error) {
	list, err := c.WatchWorkspaces(ctx, 0, 0)
	return list.Workspaces, err
}

// WatchWorkspaces lists the leader's workspaces with the leader-wide change
// version. With since non-zero and wait positive, the leader holds the
// request until its version differs from since or wait expires; since zero
// asks for an answer at once.
func (c *Client) WatchWorkspaces(ctx context.Context, since uint64, wait time.Duration) (ListResponse, error) {
	path := PathPrefix
	if since != 0 {
		q := url.Values{"since": {strconv.FormatUint(since, 10)}}
		if wait > 0 {
			q.Set("wait", strconv.FormatInt(wait.Milliseconds(), 10))
		}
		path += "?" + q.Encode()
	}
	resp, err := c.get(ctx, path)
	if err != nil {
		return ListResponse{}, err
	}
	defer resp.Body.Close()
	var list ListResponse
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		return ListResponse{}, fmt.Errorf("replication: decode workspace list: %w", err)
	}
	return list, nil
}

// Snapshot fetches and checksum-verifies a workspace snapshot.
func (c *Client) Snapshot(ctx context.Context, ws string) (Snapshot, error) {
	resp, err := c.get(ctx, PathPrefix+"/"+url.PathEscape(ws)+"/snapshot")
	if err != nil {
		return Snapshot{}, err
	}
	defer resp.Body.Close()
	var snap Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return Snapshot{}, fmt.Errorf("replication: decode snapshot: %w", err)
	}
	if err := snap.Verify(); err != nil {
		return Snapshot{}, err
	}
	return snap, nil
}

// Records fetches the journal tail after sequence number from. When the
// leader has nothing newer and wait is positive, the leader long-polls up
// to wait for a fresh append before answering; an empty batch is a valid
// answer (the follower is caught up). ErrCompacted means from is behind the
// leader's compaction horizon and a Snapshot round is needed instead.
func (c *Client) Records(ctx context.Context, ws string, from uint64, wait time.Duration) (Frames, error) {
	q := url.Values{"from": {strconv.FormatUint(from, 10)}}
	if wait > 0 {
		q.Set("wait", strconv.FormatInt(wait.Milliseconds(), 10))
	}
	resp, err := c.get(ctx, PathPrefix+"/"+url.PathEscape(ws)+"/records?"+q.Encode())
	if err != nil {
		return Frames{}, err
	}
	defer resp.Body.Close()
	var out Frames
	if out.LeaderSeq, err = strconv.ParseUint(resp.Header.Get(HeaderSeq), 10, 64); err != nil {
		return Frames{}, fmt.Errorf("replication: bad %s header: %w", HeaderSeq, err)
	}
	if out.Horizon, err = strconv.ParseUint(resp.Header.Get(HeaderHorizon), 10, 64); err != nil {
		return Frames{}, fmt.Errorf("replication: bad %s header: %w", HeaderHorizon, err)
	}
	out.LeaderOffset, _ = strconv.ParseInt(resp.Header.Get(HeaderOffset), 10, 64)
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return Frames{}, fmt.Errorf("replication: read record stream: %w", err)
	}
	// Verify every frame before handing any of it on: a corrupted line in
	// the middle must not let the prefix through as a shorter valid batch,
	// or the follower would silently apply a truncated view.
	for off := 0; off < len(body); {
		nl := bytes.IndexByte(body[off:], '\n')
		if nl < 0 {
			return Frames{}, fmt.Errorf("replication: truncated record stream (no newline after byte %d)", off)
		}
		rec, err := journal.ParseFrame(body[off : off+nl+1])
		if err != nil {
			return Frames{}, fmt.Errorf("replication: record stream: %w", err)
		}
		out.Records = append(out.Records, rec)
		off += nl + 1
	}
	out.Lines = body
	return out, nil
}
