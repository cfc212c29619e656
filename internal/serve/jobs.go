package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"pathflow/internal/engine"
)

// JobState is the lifecycle of a job:
//
//	queued → running → done | failed | canceled
//
// A queued job can also go straight to canceled (explicit cancel or
// server shutdown before a run slot freed up).
type JobState string

const (
	JobQueued   JobState = "queued"
	JobRunning  JobState = "running"
	JobDone     JobState = "done"
	JobFailed   JobState = "failed"
	JobCanceled JobState = "canceled"
)

// terminal reports whether s is an end state.
func (s JobState) terminal() bool {
	return s == JobDone || s == JobFailed || s == JobCanceled
}

// Event is one line of a job's NDJSON/SSE stream.
type Event struct {
	// Type is "state" (lifecycle transition), "profile" (training run
	// finished), "stage" (one engine stage landed), or "end" (terminal;
	// always the last event).
	Type string    `json:"type"`
	Job  string    `json:"job"`
	Time time.Time `json:"time"`

	State JobState `json:"state,omitempty"` // with type=state, type=end

	// Sweep point index (0 for analyze jobs).
	Point int `json:"point,omitempty"`

	// With type=stage: which function/stage, its compute cost, whether
	// the artifact came from the shared cache, and its provenance
	// ("computed", "memory" or "disk"). Replayed mirrors Cached — the
	// stage was served from a cache tier instead of recomputed (the
	// incremental re-analysis vocabulary) — and DecodeMS is the
	// disk-decode cost actually paid for it (nonzero only for source
	// "disk", and never folded into DurationMS). type=profile uses the
	// same Duration/Cached fields for the training run.
	Func       string  `json:"func,omitempty"`
	Stage      string  `json:"stage,omitempty"`
	DurationMS float64 `json:"duration_ms,omitempty"`
	DecodeMS   float64 `json:"decode_ms,omitempty"`
	Cached     bool    `json:"cached,omitempty"`
	Replayed   bool    `json:"replayed,omitempty"`
	Source     string  `json:"source,omitempty"`

	Error string `json:"error,omitempty"` // with type=end, failed/canceled
}

// eventLog is an append-only, broadcast-on-append event sequence. Each
// append (and the final close) wakes every waiting subscriber; readers
// keep their own cursor, so late subscribers replay from the start.
type eventLog struct {
	mu      sync.Mutex
	events  []Event
	changed chan struct{}
	closed  bool
}

func newEventLog() *eventLog { return &eventLog{changed: make(chan struct{})} }

func (l *eventLog) append(e Event) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return
	}
	l.events = append(l.events, e)
	close(l.changed)
	l.changed = make(chan struct{})
}

// close seals the log; subscribers drain and finish.
func (l *eventLog) close() {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return
	}
	l.closed = true
	close(l.changed)
}

// since returns the events at and after cursor i, a channel that is
// closed on the next change, and whether the log is sealed. If new
// events raced in after the caller's last read, the returned slice is
// non-empty and the caller simply continues without waiting.
func (l *eventLog) since(i int) ([]Event, <-chan struct{}, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	var evs []Event
	if i < len(l.events) {
		evs = append(evs, l.events[i:]...)
	}
	return evs, l.changed, l.closed
}

// Job is one unit of server work: a single analysis or a sweep.
type Job struct {
	id      string
	kind    string // "analyze" | "sweep"
	program string
	created time.Time
	events  *eventLog
	done    chan struct{}
	cancel  context.CancelFunc

	mu       sync.Mutex
	state    JobState
	started  time.Time
	finished time.Time
	result   *AnalyzeResult   // analyze, done
	results  []*AnalyzeResult // sweep, done
	metrics  *JobMetrics
	err      error
}

// ID returns the job's identifier.
func (j *Job) ID() string { return j.id }

// State returns the job's current lifecycle state.
func (j *Job) State() JobState {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Err returns the job's terminal error (nil while in flight or done).
func (j *Job) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// Cancel requests cancellation: queued jobs die before starting, running
// jobs see their context cancelled (the engine stops at the next stage
// boundary with context.Canceled provenance).
func (j *Job) Cancel() { j.cancel() }

// setRunning transitions queued → running.
func (j *Job) setRunning() {
	j.mu.Lock()
	j.state = JobRunning
	j.started = time.Now()
	j.mu.Unlock()
	j.events.append(Event{Type: "state", Job: j.id, Time: time.Now(), State: JobRunning})
}

// setResult records a finished job's deterministic result and metrics;
// finish turns it terminal.
func (j *Job) setResult(r *AnalyzeResult, rs []*AnalyzeResult, m *JobMetrics) {
	j.mu.Lock()
	j.result, j.results, j.metrics = r, rs, m
	j.mu.Unlock()
}

// resultPayload returns the deterministic result payload of a job that
// finished done: the single result for analyze jobs, the result list for
// sweeps. false for any other state.
func (j *Job) resultPayload() (any, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != JobDone {
		return nil, false
	}
	if j.kind == "sweep" {
		return j.results, true
	}
	return j.result, true
}

// finish moves the job to its terminal state, seals the event log and
// wakes waiters. The state is derived from err: nil → done, a
// context.Canceled cause → canceled, anything else → failed.
func (j *Job) finish(err error) {
	state := JobDone
	switch {
	case err == nil:
	case errors.Is(err, context.Canceled):
		state = JobCanceled
	default:
		state = JobFailed
	}
	j.mu.Lock()
	j.state = state
	j.err = err
	j.finished = time.Now()
	if j.started.IsZero() {
		j.started = j.finished
	}
	j.mu.Unlock()
	end := Event{Type: "end", Job: j.id, Time: time.Now(), State: state}
	if err != nil {
		end.Error = err.Error()
	}
	j.events.append(end)
	j.events.close()
	close(j.done)
}

// JobJSON is the wire form of a job (GET /v1/jobs/{id}).
type JobJSON struct {
	ID       string           `json:"id"`
	Kind     string           `json:"kind"`
	Program  string           `json:"program"`
	State    JobState         `json:"state"`
	Created  time.Time        `json:"created"`
	Started  *time.Time       `json:"started,omitempty"`
	Finished *time.Time       `json:"finished,omitempty"`
	Error    *ErrorBody       `json:"error,omitempty"`
	Result   *AnalyzeResult   `json:"result,omitempty"`
	Results  []*AnalyzeResult `json:"results,omitempty"`
	Metrics  *JobMetrics      `json:"metrics,omitempty"`

	StatusURL string `json:"status_url"`
	EventsURL string `json:"events_url"`
}

// JSON snapshots the job. With summary set, results and metrics are
// omitted (the GET /v1/jobs listing).
func (j *Job) JSON(summary bool) JobJSON {
	j.mu.Lock()
	defer j.mu.Unlock()
	out := JobJSON{
		ID:        j.id,
		Kind:      j.kind,
		Program:   j.program,
		State:     j.state,
		Created:   j.created,
		StatusURL: "/v1/jobs/" + j.id,
		EventsURL: "/v1/jobs/" + j.id + "/events",
	}
	if !j.started.IsZero() {
		t := j.started
		out.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		out.Finished = &t
	}
	if j.err != nil {
		b := errorBody(j.err)
		out.Error = &b
	}
	if !summary {
		out.Result = j.result
		out.Results = j.results
		out.Metrics = j.metrics
	}
	return out
}

// Manager owns every job: it admits them immediately (202 semantics),
// bounds how many run concurrently, applies per-job deadlines, and
// drains everything on shutdown by cancelling the root context all job
// contexts descend from — reusing the engine's context-cancellation
// semantics (StageError wrapping context.Canceled) for the drain.
type Manager struct {
	root    context.Context
	stop    context.CancelFunc
	sem     chan struct{}
	wg      sync.WaitGroup
	metrics *serverMetrics

	mu    sync.Mutex
	jobs  map[string]*Job
	order []string
	seq   int64
}

// newManager returns a manager running at most maxJobs jobs at once.
func newManager(maxJobs int, metrics *serverMetrics) *Manager {
	if maxJobs <= 0 {
		maxJobs = 2
	}
	root, stop := context.WithCancel(context.Background())
	return &Manager{
		root:    root,
		stop:    stop,
		sem:     make(chan struct{}, maxJobs),
		metrics: metrics,
		jobs:    map[string]*Job{},
	}
}

// Submit admits a job and schedules run on it. run receives a context
// that is cancelled by job.Cancel, by the deadline, and by Shutdown; it
// must return promptly once the context dies (engine stages guarantee
// this at stage granularity).
func (m *Manager) Submit(kind, program string, timeout time.Duration, run func(ctx context.Context, job *Job) error) *Job {
	m.mu.Lock()
	m.seq++
	id := fmt.Sprintf("job-%d", m.seq)
	ctx, cancel := context.WithCancel(m.root)
	if timeout > 0 {
		// The deadline covers queue wait too: a request's budget starts
		// when the server accepts it, not when a slot frees up.
		ctx, cancel = context.WithTimeout(ctx, timeout)
	}
	job := &Job{
		id:      id,
		kind:    kind,
		program: program,
		created: time.Now(),
		state:   JobQueued,
		events:  newEventLog(),
		done:    make(chan struct{}),
		cancel:  cancel,
	}
	m.jobs[id] = job
	m.order = append(m.order, id)
	m.mu.Unlock()

	m.metrics.jobAccepted()
	job.events.append(Event{Type: "state", Job: id, Time: time.Now(), State: JobQueued})

	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		defer cancel()
		// Wait for a run slot, the job's own cancellation/deadline, or
		// server shutdown — whichever comes first.
		select {
		case m.sem <- struct{}{}:
			defer func() { <-m.sem }()
		case <-ctx.Done():
			m.finalize(job, ctx.Err())
			return
		}
		if err := ctx.Err(); err != nil {
			m.finalize(job, err)
			return
		}
		job.setRunning()
		m.finalize(job, run(ctx, job))
	}()
	return job
}

func (m *Manager) finalize(job *Job, err error) {
	job.finish(err)
	m.metrics.jobFinished(job.State())
}

// Get returns a job by ID.
func (m *Manager) Get(id string) *Job {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.jobs[id]
}

// List returns every job in submission order.
func (m *Manager) List() []*Job {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*Job, len(m.order))
	for i, id := range m.order {
		out[i] = m.jobs[id]
	}
	return out
}

// InFlight counts jobs that have not reached a terminal state.
func (m *Manager) InFlight() int {
	n := 0
	for _, j := range m.List() {
		if !j.State().terminal() {
			n++
		}
	}
	return n
}

// Shutdown cancels every job context and waits for all jobs to reach a
// terminal state. In-flight analyses end with the engine's StageError
// wrapping context.Canceled; the shared artifact cache stays consistent
// because failed computations are evicted, never stored.
func (m *Manager) Shutdown() {
	m.stop()
	m.wg.Wait()
}

// engineCanceled reports whether err carries engine cancellation
// provenance (a StageError whose cause is context.Canceled).
func engineCanceled(err error) bool {
	var se *engine.StageError
	return errors.As(err, &se) && errors.Is(err, context.Canceled)
}
