package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ecr"
	"repro/internal/replication"
	"repro/internal/translate"
)

// API keys the benchmark installs on servers it starts with admission
// control on. The servers only ever see their SHA-256 hashes.
const (
	adminToken = "perfbench-admin-6d1f0a93"
	dataToken  = "perfbench-data-2c87e4b5"
)

// conn is one keep-alive HTTP connection to one server: the transport holds
// at most one connection, so a conn's requests are serial.
type conn struct {
	hc    *http.Client
	base  string
	token string // data key, or "" when the server runs without keys
	admin string
	buf   bytes.Buffer
}

func newConn(base string, keys bool) *conn {
	c := &conn{
		base: base,
		hc: &http.Client{Timeout: 60 * time.Second, Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		}},
	}
	if keys {
		c.token, c.admin = dataToken, adminToken
	}
	return c
}

func (c *conn) close() { c.hc.CloseIdleConnections() }

// do sends one request and returns the status and the response body, which
// stays valid until the next call on this conn.
func (c *conn) do(method, path string, body []byte, admin bool) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	tok := c.token
	if admin {
		tok = c.admin
	}
	if tok != "" {
		req.Header.Set("Authorization", "Bearer "+tok)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	c.buf.Reset()
	if _, err := c.buf.ReadFrom(resp.Body); err != nil {
		return resp.StatusCode, nil, fmt.Errorf("read %s %s: %w", method, path, err)
	}
	return resp.StatusCode, c.buf.Bytes(), nil
}

// getJSON fetches path into v, failing on any status but 200.
func (c *conn) getJSON(path string, admin bool, v any) error {
	code, body, err := c.do("GET", path, nil, admin)
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return fmt.Errorf("GET %s: status %d: %s", path, code, body)
	}
	return json.Unmarshal(body, v)
}

// seqs reads every workspace's journal sequence number from a server's
// replication listing.
func (c *conn) seqs() (map[string]uint64, error) {
	var list replication.ListResponse
	if err := c.getJSON(replication.PathPrefix, true, &list); err != nil {
		return nil, err
	}
	out := map[string]uint64{}
	for _, w := range list.Workspaces {
		out[w.Name] = w.Seq
	}
	return out, nil
}

// bodyCheck verifies a response body against an in-process oracle once,
// then holds later bodies of the same request to byte equality with the
// verified one.
type bodyCheck struct {
	what   string
	verify func(body []byte) error
	mu     sync.Mutex
	ok     []byte
}

func newBodyCheck(what string, verify func([]byte) error) *bodyCheck {
	return &bodyCheck{what: what, verify: verify}
}

func (b *bodyCheck) check(body []byte) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.ok != nil {
		if bytes.Equal(body, b.ok) {
			return nil
		}
		if err := b.verify(body); err != nil {
			return fmt.Errorf("%s: %w", b.what, err)
		}
		return nil
	}
	if err := b.verify(body); err != nil {
		return fmt.Errorf("%s: %w", b.what, err)
	}
	b.ok = append([]byte(nil), body...)
	return nil
}

// jsonEqual compares two JSON documents structurally.
func jsonEqual(got, want []byte) error {
	var g, w any
	if err := json.Unmarshal(got, &g); err != nil {
		return fmt.Errorf("decode answer: %w", err)
	}
	if err := json.Unmarshal(want, &w); err != nil {
		return fmt.Errorf("decode oracle: %w", err)
	}
	if !reflect.DeepEqual(g, w) {
		return fmt.Errorf("answer differs from oracle:\n got %.300s\nwant %.300s", got, want)
	}
	return nil
}

// fieldEqual compares one top-level field of a JSON object with want.
func fieldEqual(body []byte, field string, want []byte) error {
	var m map[string]json.RawMessage
	if err := json.Unmarshal(body, &m); err != nil {
		return fmt.Errorf("decode answer: %w", err)
	}
	got, ok := m[field]
	if !ok {
		got = []byte("null")
	}
	return jsonEqual(got, want)
}

func parseUpload(o *op) ([]*ecr.Schema, error) {
	res, _, err := translate.Parse(o.format, o.name, o.src)
	if err != nil {
		return nil, err
	}
	return res.Schemas, nil
}

// recorder collects one run's client-side outcomes. Several connections
// record into it at once.
type recorder struct {
	mu         sync.Mutex
	reads      samples
	writes     samples
	integrates samples
	attempted  int
	failed     int
	respBytes  int64
	writeBytes int64   // mutation request body bytes
	gaps       samples // closed loop: from a reply to the next send
	errs       []string
	// acked receives every acknowledged write of the measured phase, for
	// the replica-lag prober; nil outside it.
	acked func(o *op, at time.Time)
}

func (r *recorder) fail(err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.failed++
	if len(r.errs) < 5 {
		r.errs = append(r.errs, err.Error())
	}
}

func (r *recorder) ok() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.failed == 0
}

// exec runs one op on c. Latency runs from due (the op's scheduled send
// time in an open loop, the send time in a closed one) to the last byte of
// the response; exec returns it. A wrong status or a failed body check
// counts as a failure.
func (r *recorder) exec(c *conn, o *op, due time.Time) (time.Duration, error) {
	code, body, err := c.do(o.method, o.path, o.body, o.admin)
	done := time.Now()
	lat := done.Sub(due)
	if err == nil && code != o.want {
		err = fmt.Errorf("%s %s: status %d, want %d: %.300s", o.method, o.path, code, o.want, body)
	}
	if err == nil && o.check != nil {
		err = o.check.check(body)
	}
	r.mu.Lock()
	r.attempted++
	r.respBytes += int64(len(body))
	r.mu.Unlock()
	if err != nil {
		r.fail(err)
		return lat, err
	}
	r.mu.Lock()
	switch {
	case o.kind == opIntegrate:
		r.integrates.add(lat)
	case o.kind.write():
		r.writes.add(lat)
		r.writeBytes += int64(len(o.body))
	default:
		r.reads.add(lat)
	}
	acked := r.acked
	r.mu.Unlock()
	if acked != nil && o.kind.write() {
		acked(o, done)
	}
	return lat, nil
}

// lagProber measures replica lag by sampling: when an acknowledged write
// arrives while no probe is in flight, it long-polls the follower's record
// stream of that workspace until the follower holds the write's sequence
// number. Writes acknowledged during a probe are not timed, so every sample
// starts at its own acknowledgement. It owns one connection to the follower.
type lagProber struct {
	c    *replication.Client
	hc   *http.Client
	ch   chan probe
	done chan struct{}
	mu   sync.Mutex
	seq  map[string]uint64 // leader sequence number per workspace
	// deleted names workspaces the run deleted; a probe of one that the
	// follower dropped before reaching the write is void, not a sample.
	deleted map[string]bool
	void    int
	lag     samples
	errs    []string
	busy    atomic.Bool
	ctx     context.Context
	cancel  context.CancelFunc
}

type probe struct {
	ws  string
	seq uint64
	at  time.Time
}

// newLagProber starts the prober. seq holds each workspace's leader
// sequence number at the start of the measured phase; every acknowledged
// write adds one record.
func newLagProber(followerURL string, keys bool, seq map[string]uint64) *lagProber {
	hc := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
	if keys {
		hc.Transport = authed{next: hc.Transport}
	}
	ctx, cancel := context.WithCancel(context.Background())
	p := &lagProber{
		c:       replication.NewClient(followerURL, hc),
		hc:      hc,
		ch:      make(chan probe, 1),
		done:    make(chan struct{}),
		seq:     seq,
		deleted: map[string]bool{},
		ctx:     ctx,
		cancel:  cancel,
	}
	go p.loop()
	return p
}

type authed struct{ next http.RoundTripper }

func (a authed) RoundTrip(r *http.Request) (*http.Response, error) {
	r = r.Clone(r.Context())
	r.Header.Set("Authorization", "Bearer "+adminToken)
	return a.next.RoundTrip(r)
}

// setSeq records a workspace's leader sequence number, for workspaces
// created during the measured phase.
func (p *lagProber) setSeq(ws string, seq uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.seq[ws] = seq
}

// acked records one acknowledged write and starts a probe for it when none
// is in flight; it never blocks.
func (p *lagProber) acked(o *op, at time.Time) {
	if o.kind == opDeleteWS {
		p.mu.Lock()
		p.deleted[o.ws] = true
		p.mu.Unlock()
	}
	if o.kind == opCreateWS || o.kind == opDeleteWS {
		return
	}
	p.mu.Lock()
	p.seq[o.ws]++
	s := p.seq[o.ws]
	p.mu.Unlock()
	if p.busy.CompareAndSwap(false, true) {
		p.ch <- probe{ws: o.ws, seq: s, at: at} // the slot is free: busy was false
	}
}

func (p *lagProber) loop() {
	defer close(p.done)
	for pr := range p.ch {
		if err := p.wait(pr); err != nil {
			p.mu.Lock()
			p.errs = append(p.errs, err.Error())
			p.mu.Unlock()
		}
		p.busy.Store(false)
	}
}

// wait blocks until the follower's journal for pr.ws holds pr.seq.
func (p *lagProber) wait(pr probe) error {
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		// A short wait bounds the cost of a missed wake-up: a follower that
		// re-bootstraps from a snapshot (journal.ResetTo) does not wake
		// record-stream long-polls, so the probe polls again instead.
		fr, err := p.c.Records(p.ctx, pr.ws, pr.seq-1, 25*time.Millisecond)
		if err != nil && !errors.Is(err, replication.ErrCompacted) {
			p.mu.Lock()
			gone := p.deleted[pr.ws]
			if gone {
				p.void++
			}
			p.mu.Unlock()
			switch {
			case gone:
				return nil // the run deleted the workspace under the probe
			case errors.Is(err, replication.ErrNoWorkspace):
				time.Sleep(time.Millisecond) // not mirrored yet
				continue
			}
			return err
		}
		if err == nil && len(fr.Records) == 0 {
			continue
		}
		// Records arrived, or the follower compacted past the write: it
		// holds it either way.
		p.mu.Lock()
		p.lag.add(time.Since(pr.at))
		p.mu.Unlock()
		return nil
	}
	return fmt.Errorf("replica lag probe: follower never reached %s seq %d", pr.ws, pr.seq)
}

// stop drains the outstanding probes and stops the prober.
func (p *lagProber) stop() (samples, []string) {
	close(p.ch)
	<-p.done
	p.cancel()
	p.hc.CloseIdleConnections()
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.lag, p.errs
}
