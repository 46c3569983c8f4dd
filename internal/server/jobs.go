package server

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"
)

// The queue's rejection reasons. Handlers classify them with errors.Is —
// never by message text, which can embed user-controlled input.
var (
	errQueueFull   = errors.New("job queue is full")
	errQueueClosed = errors.New("queue is shut down")
)

// JobState is a job's lifecycle position. Queued and Running are
// transient; Done, Failed, Canceled and Interrupted are terminal.
type JobState string

// The job states.
const (
	JobQueued   JobState = "queued"
	JobRunning  JobState = "running"
	JobDone     JobState = "done"
	JobFailed   JobState = "failed"
	JobCanceled JobState = "canceled"
	// JobInterrupted marks a job that was running when the process died
	// (or was torn down); the work may or may not have completed, so the
	// job is safe to resubmit — integration is idempotent.
	JobInterrupted JobState = "interrupted"
)

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool {
	return s == JobDone || s == JobFailed || s == JobCanceled || s == JobInterrupted
}

// Retryable reports whether resubmitting the job's request makes sense.
func (s JobState) Retryable() bool { return s == JobInterrupted || s == JobCanceled }

// JobRequest is the payload of one integration job. Exactly one of two
// forms is used: Spec carries a self-contained batch specification
// (batch.ParseSpec format); otherwise Schema1/Schema2 name a pair to
// integrate from the workspace's declared equivalences and assertions.
type JobRequest struct {
	// Type is "integrate" (workspace pair) or "spec" (batch spec).
	Type    string `json:"type"`
	Schema1 string `json:"schema1,omitempty"`
	Schema2 string `json:"schema2,omitempty"`
	Spec    string `json:"spec,omitempty"`
}

// Validate checks the request shape before it is queued.
func (r JobRequest) Validate() error {
	switch r.Type {
	case "integrate":
		if r.Schema1 == "" || r.Schema2 == "" {
			return fmt.Errorf("server: integrate job needs schema1 and schema2")
		}
	case "spec":
		if r.Spec == "" {
			return fmt.Errorf("server: spec job needs a spec body")
		}
	default:
		return fmt.Errorf("server: unknown job type %q (want integrate or spec)", r.Type)
	}
	return nil
}

// Job is one queued integration. Snapshot copies are handed out by the
// queue; the worker goroutine owns the live record.
type Job struct {
	ID      string     `json:"id"`
	Request JobRequest `json:"request"`
	State   JobState   `json:"state"`
	// Error explains a failed job.
	Error string `json:"error,omitempty"`
	// Result is set when State is done.
	Result *IntegrationResult `json:"result,omitempty"`

	Created  time.Time  `json:"created"`
	Started  *time.Time `json:"started,omitempty"`
	Finished *time.Time `json:"finished,omitempty"`
}

// JobExecutor runs one job's work, returning the integration outcome.
type JobExecutor func(ctx context.Context, req JobRequest) (*IntegrationResult, error)

// Queue is a bounded asynchronous job queue over a fixed worker pool.
// Submit enqueues (rejecting when the buffer is full), workers drain in
// FIFO order, and Shutdown stops intake, cancels the workers' context and
// waits for in-flight jobs. Jobs still queued at shutdown become canceled.
type Queue struct {
	exec    JobExecutor
	jobs    chan *Job
	timeout time.Duration

	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu     sync.Mutex
	byID   map[string]*Job // guarded by mu
	order  []string        // guarded by mu
	nextID int             // guarded by mu
	closed bool            // guarded by mu
	// depth is the number of jobs submitted but not yet terminal.
	depth int // guarded by mu

	// observe, when set, is called after every state transition with a
	// snapshot (metrics hook). The callback itself runs outside the lock.
	observe func(Job) // guarded by mu

	// persist, when set, journals submissions (write-ahead, before the
	// job enters the buffer) and start/finish transitions. Cancellations
	// caused by queue teardown are deliberately not journaled: a job whose
	// log ends at "submitted" is re-enqueued by the next process, one
	// whose log ends at "started" comes back as interrupted.
	persist func(op string, v any) error // guarded by mu
	// persistErr receives journal failures on paths that cannot reject
	// (state transitions); nil drops them.
	persistErr func(error) // guarded by mu
	// maxJobs, when positive, caps queued+running jobs — the tenant's quota
	// envelope (429), distinct from the buffer capacity (503, transient).
	// Replica queues leave it 0: replicated records must always apply.
	maxJobs int // guarded by mu
}

// NewQueue starts a queue with the given worker count and buffer capacity.
// timeout bounds each job's execution; 0 means no per-job limit.
func NewQueue(workers, capacity int, timeout time.Duration, exec JobExecutor) *Queue {
	if workers < 1 {
		workers = 1
	}
	if capacity < 1 {
		capacity = 1
	}
	ctx, cancel := context.WithCancel(context.Background())
	q := &Queue{
		exec:    exec,
		jobs:    make(chan *Job, capacity),
		timeout: timeout,
		cancel:  cancel,
		byID:    map[string]*Job{},
	}
	q.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go q.worker(ctx)
	}
	return q
}

// SetObserver installs a state-transition hook. Workers may already be
// draining restored jobs when the hook is wired, so the write takes the
// lock like any other.
func (q *Queue) SetObserver(fn func(Job)) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.observe = fn
}

// SetPersist installs the journaling hooks (call before serving). onErr
// receives journal failures from state transitions, which cannot be
// rejected; submission failures are returned to the submitter instead.
func (q *Queue) SetPersist(fn func(op string, v any) error, onErr func(error)) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.persist = fn
	q.persistErr = onErr
}

// SetMaxJobs installs the queued+running quota (0 = unlimited). Call
// before the queue is shared, or from the promotion path where replica
// queues become writable.
func (q *Queue) SetMaxJobs(max int) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.maxJobs = max
}

// Submit validates and enqueues a job, returning its snapshot. It fails
// when the workspace's job quota or the queue buffer is full, or the queue
// is shut down.
func (q *Queue) Submit(req JobRequest) (Job, error) {
	if err := req.Validate(); err != nil {
		return Job{}, err
	}
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return Job{}, fmt.Errorf("server: %w", errQueueClosed)
	}
	// The quota rejects before journaling for the same reason the buffer
	// check does: a refused job must never reach the log.
	if depth, max := q.depth, q.maxJobs; max > 0 && depth >= max {
		q.mu.Unlock()
		return Job{}, fmt.Errorf("server: job %w: %d jobs queued or running (max %d)", ErrQuota, depth, max)
	}
	// Reject a full buffer before journaling, so a rejected job never
	// reaches the log (and would not be resurrected on restart). Workers
	// only drain the buffer, so the room observed here cannot vanish
	// before the send below.
	if len(q.jobs) == cap(q.jobs) {
		q.mu.Unlock()
		return Job{}, fmt.Errorf("server: %w (capacity %d)", errQueueFull, cap(q.jobs))
	}
	q.nextID++
	job := &Job{
		ID:      fmt.Sprintf("job-%d", q.nextID),
		Request: req,
		State:   JobQueued,
		Created: time.Now().UTC(),
	}
	if q.persist != nil {
		if err := q.persist(opJobSubmit, jobSubmitRec{ID: job.ID, Request: req, Created: job.Created}); err != nil {
			// The ID is burned, never reused: if the journal could not roll
			// the failed record back (it is sticky-broken then), a reused ID
			// would collide with that record on replay.
			q.mu.Unlock()
			return Job{}, fmt.Errorf("server: job not accepted, journal unavailable: %w", err)
		}
	}
	select {
	case q.jobs <- job:
	default:
		// Unreachable: capacity was checked under the lock above. The ID is
		// burned here too — its submit record may already be journaled.
		q.mu.Unlock()
		return Job{}, fmt.Errorf("server: %w (capacity %d)", errQueueFull, cap(q.jobs))
	}
	q.byID[job.ID] = job
	q.order = append(q.order, job.ID)
	q.depth++
	snap := *job
	q.mu.Unlock()
	q.notify(snap)
	return snap, nil
}

// Get returns a snapshot of the identified job.
func (q *Queue) Get(id string) (Job, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	job, ok := q.byID[id]
	if !ok {
		return Job{}, false
	}
	return *job, true
}

// List returns snapshots of every job in submission order.
func (q *Queue) List() []Job {
	q.mu.Lock()
	defer q.mu.Unlock()
	out := make([]Job, 0, len(q.order))
	for _, id := range q.order {
		out = append(out, *q.byID[id])
	}
	return out
}

// Depth returns the number of non-terminal jobs (queued + running).
func (q *Queue) Depth() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.depth
}

// notify reports a transition to the observer. The hook is captured under
// the lock but invoked outside it: the observer feeds the metrics
// registry, which takes its own lock.
func (q *Queue) notify(snap Job) {
	q.mu.Lock()
	fn := q.observe
	q.mu.Unlock()
	if fn != nil {
		fn(snap)
	}
}

// transition updates a job under the lock, journals it under persistOp
// (when set and a journal is attached) and reports the snapshot. Holding
// the lock across the journal append keeps the log order identical to the
// in-memory order.
func (q *Queue) transition(job *Job, persistOp string, fn func(*Job)) {
	q.mu.Lock()
	fn(job)
	if job.State.Terminal() {
		q.depth--
	}
	snap := *job
	if persistOp != "" && q.persist != nil {
		var rec any
		switch persistOp {
		case opJobStart:
			rec = jobStartRec{ID: snap.ID, Started: *snap.Started}
		case opJobFinish:
			rec = jobFinishRec{ID: snap.ID, State: snap.State, Error: snap.Error,
				Result: snap.Result, Finished: *snap.Finished}
		}
		if err := q.persist(persistOp, rec); err != nil && q.persistErr != nil {
			q.persistErr(err)
		}
	}
	q.mu.Unlock()
	q.notify(snap)
}

func (q *Queue) worker(ctx context.Context) {
	defer q.wg.Done()
	for {
		select {
		case <-ctx.Done():
			return
		case job, ok := <-q.jobs:
			if !ok {
				return
			}
			q.runOne(ctx, job)
		}
	}
}

func (q *Queue) runOne(ctx context.Context, job *Job) {
	if ctx.Err() != nil {
		// Queue torn down before the job ran. With a journal attached the
		// job stays "queued" on disk (no terminal record) and the next
		// process re-enqueues it; in memory it reads canceled.
		q.transition(job, "", func(j *Job) {
			j.State = JobCanceled
			j.Error = "queue shut down before the job ran"
			now := time.Now().UTC()
			j.Finished = &now
		})
		return
	}
	q.transition(job, opJobStart, func(j *Job) {
		j.State = JobRunning
		now := time.Now().UTC()
		j.Started = &now
	})
	runCtx := ctx
	if q.timeout > 0 {
		var cancel context.CancelFunc
		runCtx, cancel = context.WithTimeout(ctx, q.timeout)
		defer cancel()
	}
	res, err := q.exec(runCtx, job.Request)
	if err != nil && ctx.Err() != nil {
		// The queue's own context died mid-run (shutdown or Kill), not the
		// per-job timeout. Journaling no finish record leaves the log at
		// "started", which replays as interrupted — exactly what happened.
		q.transition(job, "", func(j *Job) {
			j.State = JobInterrupted
			j.Error = "job interrupted by shutdown; resubmit to retry"
			now := time.Now().UTC()
			j.Finished = &now
		})
		return
	}
	q.transition(job, opJobFinish, func(j *Job) {
		now := time.Now().UTC()
		j.Finished = &now
		if err != nil {
			j.State = JobFailed
			j.Error = err.Error()
			return
		}
		j.State = JobDone
		j.Result = res
	})
}

// Shutdown stops intake and waits for the workers to drain in-flight work,
// up to the context deadline; jobs never started are marked canceled. It
// returns the context's error when the deadline cuts the wait short.
func (q *Queue) Shutdown(ctx context.Context) error {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return nil
	}
	q.closed = true
	close(q.jobs)
	q.mu.Unlock()

	done := make(chan struct{})
	go func() {
		q.wg.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
		q.cancel() // force workers to stop at the next checkpoint
		<-done
	}
	// Anything still buffered never ran. The journal keeps these at
	// "submitted" — no terminal record is written — so a durable queue's
	// leftovers are re-enqueued by the next process; in memory they read
	// canceled either way.
	for job := range q.jobs {
		q.transition(job, "", func(j *Job) {
			j.State = JobCanceled
			j.Error = "queue shut down before the job ran"
			now := time.Now().UTC()
			j.Finished = &now
		})
	}
	q.cancel()
	return err
}

// Kill tears the queue down without draining: intake closes and the worker
// context is canceled immediately. Used by Server.Kill to simulate a
// crash; jobs in flight become interrupted in memory and stay "started" in
// the journal.
func (q *Queue) Kill() {
	q.mu.Lock()
	if !q.closed {
		q.closed = true
		close(q.jobs)
	}
	q.mu.Unlock()
	q.cancel()
	q.wg.Wait()
}

// Restore seeds the queue with a job table recovered from the journal (or
// replicated from a leader), before the queue takes writes. Queued jobs
// are re-enqueued, running ones (interrupted mid-flight) come back
// interrupted, and terminal jobs keep their recorded state; the ID
// sequence continues past the table's. The table is only read.
func (q *Queue) Restore(t *jobTable) (requeued, interrupted int) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if t.nextID > q.nextID {
		q.nextID = t.nextID
	}
	for i := range t.jobs {
		job := t.jobs[i] // private copy; the queue owns the live record
		switch job.State {
		case JobQueued:
			select {
			case q.jobs <- &job:
				q.depth++
				requeued++
			default:
				// The recovered backlog exceeds this process's buffer.
				job.State = JobInterrupted
				job.Error = "job recovered but the queue buffer is smaller than the backlog; resubmit to retry"
				now := time.Now().UTC()
				job.Finished = &now
				interrupted++
			}
		case JobRunning:
			job.State = JobInterrupted
			job.Error = "job interrupted by server restart; resubmit to retry"
			now := time.Now().UTC()
			job.Finished = &now
			interrupted++
		}
		q.byID[job.ID] = &job
		q.order = append(q.order, job.ID)
	}
	return requeued, interrupted
}

// snapshotState returns every job plus the ID counter for compaction.
func (q *Queue) snapshotState() ([]Job, int) {
	q.mu.Lock()
	defer q.mu.Unlock()
	jobs := make([]Job, 0, len(q.order))
	for _, id := range q.order {
		jobs = append(jobs, *q.byID[id])
	}
	return jobs, q.nextID
}
