package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pathflow/internal/bench"
	"pathflow/internal/bl"
	"pathflow/internal/cfg"
	"pathflow/internal/engine"
	"pathflow/internal/interp"
	"pathflow/internal/lang"
)

// Config configures a Server. The zero value is usable: NumCPU engine
// workers, 2 concurrent jobs, artifact cache on, no default deadline.
type Config struct {
	// Workers bounds each job's parallel function analyses (engine
	// workers); <= 0 means NumCPU.
	Workers int
	// MaxJobs bounds concurrently *running* jobs; further submissions
	// queue. <= 0 means 2.
	MaxJobs int
	// NoCache disables the shared artifact cache (for A/B measurement;
	// the whole point of the service is leaving it on).
	NoCache bool
	// CacheDir, when non-empty, attaches the engine's persistent cache
	// tier: artifacts are written through to disk and survive restarts,
	// so a restarted daemon answers repeat requests by decoding instead
	// of recomputing.
	CacheDir string
	// CacheMaxBytes bounds the disk tier (<= 0 means unbounded).
	CacheMaxBytes int64
	// MemoryMaxBytes bounds the in-memory cache tier's estimated
	// footprint, giving a long-lived server a hard memory ceiling
	// (<= 0 means unbounded).
	MemoryMaxBytes int64
	// DefaultTimeout is the per-job deadline applied when a request
	// does not set timeout_ms; 0 means no deadline.
	DefaultTimeout time.Duration
}

// Server is the long-running analysis service. One engine — and
// therefore one single-flight artifact cache — is shared by every job,
// so repeated or overlapping requests for the same (function, profile,
// knob) artifacts are served from memory instead of being recomputed.
type Server struct {
	cfg     Config
	eng     *engine.Engine
	jobs    *Manager
	metrics *serverMetrics
	mux     *http.ServeMux
	reqSeq  atomic.Int64

	// memo is the program/profile memo shared by every job.
	memo progMemo

	// streams holds each target's live profile stream (decaying
	// accumulators + drift baseline), keyed like the memo.
	streamsMu sync.Mutex
	streams   map[string]*targetStream

	// hookStage, when non-nil, observes every engine StageEvent after
	// the server's own bookkeeping. Test seam; set before serving.
	hookStage func(engine.StageEvent)
}

// progEntry is one memoized (program, training profile) pair.
// ready is closed when prog/train/err are final (single-flight).
type progEntry struct {
	ready     chan struct{}
	prog      *cfg.Program
	train     *bl.ProgramProfile
	profileMS float64
	err       error
}

// progMemo memoizes training profiles keyed by the full target spec,
// single-flight so overlapping requests share one training run: every
// job for a target after the first reuses its profile instead of
// re-running the interpreter.
type progMemo struct {
	mu       sync.Mutex
	programs map[string]*progEntry
}

func newProgMemo() progMemo { return progMemo{programs: map[string]*progEntry{}} }

// New returns a server with a fresh engine. It fails only when a
// configured CacheDir cannot be opened.
func New(cfg Config) (*Server, error) {
	eng, err := engine.Open(engine.Config{
		Workers:        cfg.Workers,
		Cache:          !cfg.NoCache,
		MemoryMaxBytes: cfg.MemoryMaxBytes,
		CacheDir:       cfg.CacheDir,
		CacheMaxBytes:  cfg.CacheMaxBytes,
	})
	if err != nil {
		return nil, fmt.Errorf("serve: opening cache dir: %w", err)
	}
	s := &Server{
		cfg:     cfg,
		eng:     eng,
		metrics: newServerMetrics(),
		memo:    newProgMemo(),
		streams: map[string]*targetStream{},
	}
	s.jobs = newManager(cfg.MaxJobs, s.metrics)
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/analyze", s.handleAnalyze)
	s.mux.HandleFunc("POST /v1/sweep", s.handleSweep)
	s.mux.HandleFunc("GET /v1/jobs", s.handleJobList)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	s.mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleJobResult)
	s.mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleJobEvents)
	s.mux.HandleFunc("POST /v1/jobs/{id}/cancel", s.handleJobCancel)
	s.mux.HandleFunc("POST /v1/profiles", s.handleProfileIngest)
	s.mux.HandleFunc("GET /v1/profiles", s.handleProfileState)
	s.mux.HandleFunc("GET /v1/programs", s.handlePrograms)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s, nil
}

// Engine exposes the shared engine (cumulative CacheStats and friends).
func (s *Server) Engine() *engine.Engine { return s.eng }

// Handler returns the service's HTTP handler (request-ID middleware
// included), for tests and embedding.
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.metrics.request()
		id := r.Header.Get("X-Request-ID")
		if id == "" {
			id = fmt.Sprintf("req-%d", s.reqSeq.Add(1))
		}
		w.Header().Set("X-Request-ID", id)
		s.mux.ServeHTTP(w, r.WithContext(withRequestID(r.Context(), id)))
	})
}

type requestIDKey struct{}

func withRequestID(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, requestIDKey{}, id)
}

func requestID(r *http.Request) string {
	id, _ := r.Context().Value(requestIDKey{}).(string)
	return id
}

// Serve runs the HTTP service on l until ctx is cancelled, then shuts
// down gracefully: jobs are drained first (their contexts are cancelled,
// in-flight analyses stop at the next stage boundary with
// context.Canceled provenance, metric streams seal and finish), then the
// listener closes once active connections complete.
func (s *Server) Serve(ctx context.Context, l net.Listener) error {
	hs := &http.Server{
		Handler:           s.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(l) }()
	select {
	case err := <-errc:
		s.jobs.Shutdown()
		s.saveStreams()
		return err
	case <-ctx.Done():
	}
	// Drain jobs before the HTTP shutdown: event streams follow job
	// lifetimes, so cancelling jobs is what lets streaming connections
	// (and hs.Shutdown) complete.
	s.jobs.Shutdown()
	// Persist the live profile streams so accumulated counts and
	// ingestion sequence numbers survive the restart.
	s.saveStreams()
	sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := hs.Shutdown(sctx); err != nil {
		return err
	}
	<-errc // http.ErrServerClosed
	return nil
}

// ListenAndServe listens on addr (":0" picks an ephemeral port), reports
// the bound address through onListen (may be nil), and serves until ctx
// is cancelled.
func (s *Server) ListenAndServe(ctx context.Context, addr string, onListen func(net.Addr)) error {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	if onListen != nil {
		onListen(l.Addr())
	}
	return s.Serve(ctx, l)
}

// --- Target resolution ----------------------------------------------------

// resolvedTarget is a validated analysis target: the compiled program,
// its display name, the memo key, and a factory for fresh training-run
// interpreter options (profiling consumes the input stream).
type resolvedTarget struct {
	key   string
	name  string
	prog  *cfg.Program
	fresh func() interp.Options
}

// maxInputLen bounds an inline target's input_len: the training run
// allocates that many input values up front. The largest named
// benchmark reads 16384, so 1<<20 leaves 64x headroom while a client can
// no longer make the daemon allocate an arbitrary slice.
const maxInputLen = 1 << 20

// InputLenError reports an input_len over maxInputLen; it maps to 422.
type InputLenError struct {
	Len, Limit int
}

func (e *InputLenError) Error() string {
	return fmt.Sprintf("serve: input_len %d exceeds %d", e.Len, e.Limit)
}

// Hint tells the client the accepted range.
func (e *InputLenError) Hint() string {
	return fmt.Sprintf("input_len must be at most %d (0 or omitted means 4096)", e.Limit)
}

// resolveTarget validates the spec and compiles (or looks up) the
// program. Handlers call it synchronously at submit time so bad
// requests fail with 400/404/422 before a job is created; the expensive
// training run happens later, inside the job.
func resolveTarget(spec *TargetSpec) (*resolvedTarget, error) {
	switch {
	case spec.Program != "" && spec.Source != "":
		return nil, errors.New(`serve: "program" and "source" are mutually exclusive`)
	case spec.Program == "" && spec.Source == "":
		return nil, errors.New(`serve: one of "program" (a benchmark name) or "source" (inline text) is required`)
	}
	if spec.Program != "" {
		b, err := bench.Get(spec.Program)
		if err != nil {
			return nil, err
		}
		prog, err := b.Program()
		if err != nil {
			return nil, err
		}
		fresh := b.TrainOptions
		if spec.Ref {
			fresh = b.RefOptions
		}
		return &resolvedTarget{
			key:   fmt.Sprintf("bench\x00%s\x00ref=%v", b.Name, spec.Ref),
			name:  b.Name,
			prog:  prog,
			fresh: fresh,
		}, nil
	}
	inputLen := spec.InputLen
	if inputLen <= 0 {
		inputLen = 4096
	}
	if inputLen > maxInputLen {
		return nil, &InputLenError{Len: inputLen, Limit: maxInputLen}
	}
	prog, err := lang.Compile(spec.Source)
	if err != nil {
		return nil, fmt.Errorf("serve: compiling inline source: %w", err)
	}
	seed := spec.Seed
	if seed == 0 {
		seed = 1
	}
	args := append([]int64(nil), spec.Args...)
	fresh := func() interp.Options {
		return interp.Options{
			Args:  args,
			Input: &interp.SliceInput{Values: bench.InputValues(seed, inputLen)},
		}
	}
	return &resolvedTarget{
		key:   fmt.Sprintf("src\x00%s\x00args=%v seed=%d len=%d", spec.Source, args, seed, inputLen),
		name:  "inline",
		prog:  prog,
		fresh: fresh,
	}, nil
}

// trainProfile returns the target's training profile, computing it at
// most once per distinct target (single-flight: overlapping jobs for the
// same target share one training run). The second return is the compute
// cost in milliseconds; the third reports a memo hit.
func (m *progMemo) trainProfile(rt *resolvedTarget) (*bl.ProgramProfile, float64, bool, error) {
	m.mu.Lock()
	e, ok := m.programs[rt.key]
	if ok {
		m.mu.Unlock()
		<-e.ready
		return e.train, e.profileMS, true, e.err
	}
	e = &progEntry{ready: make(chan struct{}), prog: rt.prog}
	m.programs[rt.key] = e
	m.mu.Unlock()

	t0 := time.Now()
	e.train, _, e.err = bl.ProfileProgram(rt.prog, rt.fresh())
	e.profileMS = durMS(time.Since(t0))
	close(e.ready)
	if e.err != nil {
		// Evict failures so a later identical request can retry.
		m.mu.Lock()
		delete(m.programs, rt.key)
		m.mu.Unlock()
		return nil, e.profileMS, false, e.err
	}
	return e.train, e.profileMS, false, nil
}

// --- Job execution --------------------------------------------------------

// observer fans engine stage events out to the service metrics and the
// job's event stream. point tags sweep points (0 for plain analyses).
func (s *Server) observer(job *Job, point int) func(engine.StageEvent) {
	return func(ev engine.StageEvent) {
		s.metrics.observeStage(ev)
		job.events.append(Event{
			Type:       "stage",
			Job:        job.id,
			Time:       time.Now(),
			Point:      point,
			Func:       ev.Func,
			Stage:      string(ev.Stage),
			DurationMS: durMS(ev.Duration),
			DecodeMS:   durMS(ev.Decode),
			Cached:     ev.Cached,
			Replayed:   ev.Cached,
			Source:     ev.Source.String(),
		})
		if h := s.hookStage; h != nil {
			h(ev)
		}
	}
}

// runPoints is the job body shared by analyze (one point) and sweep
// (many): fetch the profile once, then run each point under a stage
// observer, accumulating deterministic results and nondeterministic
// metrics. The profile is the training run's (memoized per program), or
// with live the target's merged streamed profile. A live job also sends
// one `delta` event per function — its edit class against the profile
// the cached artifacts were built from (engine.DiffPrograms on the
// unchanged program) — and then records the live profile as that
// baseline. The warm cache does the rest: an undrifted function replays
// every stage, a drifted one recomputes the suffix its new counts dirty.
func (s *Server) runPoints(ctx context.Context, job *Job, rt *resolvedTarget, points []engine.Options, live bool) error {
	t0 := time.Now()
	jm := &JobMetrics{ProfileCached: true}
	var (
		train *bl.ProgramProfile
		ts    *targetStream
		err   error
	)
	if live {
		var base *bl.ProgramProfile
		if ts, base, err = s.streamFor(rt); err != nil {
			return err
		}
		job.events.append(Event{Type: "profile", Job: job.id, Time: time.Now(), Cached: true})
		train = ts.set.Profile()
		prev, _ := ts.baseline(base)
		for _, d := range engine.DiffPrograms(rt.prog, rt.prog, prev, train) {
			job.events.append(Event{
				Type: "delta", Job: job.id, Time: time.Now(),
				Func: d.Func, Stage: string(d.Class),
			})
		}
	} else {
		if train, jm.ProfileMS, jm.ProfileCached, err = s.memo.trainProfile(rt); err != nil {
			return err
		}
		s.metrics.observeProfile(jm.ProfileCached)
		job.events.append(Event{
			Type: "profile", Job: job.id, Time: time.Now(),
			DurationMS: jm.ProfileMS, Cached: jm.ProfileCached,
		})
	}
	if err := ctx.Err(); err != nil {
		// The training run is not cancellable; honor a cancellation that
		// arrived while it ran before starting the engine.
		return err
	}

	var results []*AnalyzeResult
	for i, o := range points {
		octx := engine.WithStageObserver(ctx, s.observer(job, i))
		res, err := s.eng.AnalyzeProgram(octx, rt.prog, train, o)
		if err != nil {
			return err
		}
		jm.addProgram(res)
		results = append(results, buildResult(rt.name, o, res))
	}
	if live {
		ts.setAnalyzed(train, points[len(points)-1].CA)
	}
	jm.WallMS = durMS(time.Since(t0))
	jm.EngineCache = cacheJSON(s.eng.CacheStats())
	if job.kind == "sweep" {
		job.setResult(nil, results, jm)
	} else {
		job.setResult(results[0], nil, jm)
	}
	return nil
}

// --- Handlers -------------------------------------------------------------

// maxBodyBytes bounds every JSON request body. The largest named
// program's source is under 20 KB and a profile batch carrying every
// trained path of one is a few tens of KB, so 1 MiB leaves wide room
// for inline sources and batches while a client can no longer stream an
// unbounded body into the decoder.
const maxBodyBytes = 1 << 20

// BodyTooLargeError reports a request body over maxBodyBytes; it maps
// to 413.
type BodyTooLargeError struct {
	Limit int64
}

func (e *BodyTooLargeError) Error() string {
	return fmt.Sprintf("serve: request body exceeds %d bytes", e.Limit)
}

// Hint tells the client how to get under the limit.
func (e *BodyTooLargeError) Hint() string {
	return fmt.Sprintf("request bodies are limited to %d bytes; split profile batches or shorten the inline source", e.Limit)
}

// decodeBody strictly decodes a JSON request body of at most
// maxBodyBytes.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var mb *http.MaxBytesError
		if errors.As(err, &mb) {
			return &BodyTooLargeError{Limit: mb.Limit}
		}
		return fmt.Errorf("serve: bad request body: %w", err)
	}
	return nil
}

func (s *Server) timeoutFor(ms int64) time.Duration {
	if ms > 0 {
		return time.Duration(ms) * time.Millisecond
	}
	return s.cfg.DefaultTimeout
}

func (s *Server) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	var req AnalyzeRequest
	if err := decodeBody(w, r, &req); err != nil {
		writeError(w, requestID(r), statusFor(err), err)
		return
	}
	rt, err := resolveTarget(&req.TargetSpec)
	if err != nil {
		writeError(w, requestID(r), statusFor(err), err)
		return
	}
	o := engine.DefaultOptions()
	if req.Options != nil {
		o, err = req.Options.engine()
		if err != nil {
			writeError(w, requestID(r), http.StatusBadRequest, err)
			return
		}
	}
	if err := o.Validate(); err != nil {
		writeError(w, requestID(r), http.StatusBadRequest, err)
		return
	}
	job := s.jobs.Submit("analyze", rt.name, s.timeoutFor(req.TimeoutMS), func(ctx context.Context, job *Job) error {
		return s.runPoints(ctx, job, rt, []engine.Options{o}, req.Live)
	})
	s.respondSubmitted(w, r, job)
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	var req SweepRequest
	if err := decodeBody(w, r, &req); err != nil {
		writeError(w, requestID(r), statusFor(err), err)
		return
	}
	if len(req.Points) == 0 {
		writeError(w, requestID(r), http.StatusBadRequest,
			errors.New(`serve: "points" must list at least one {ca, cr} pair`))
		return
	}
	rt, err := resolveTarget(&req.TargetSpec)
	if err != nil {
		writeError(w, requestID(r), statusFor(err), err)
		return
	}
	points := make([]engine.Options, len(req.Points))
	for i, p := range req.Points {
		points[i], err = p.engine()
		if err == nil {
			err = points[i].Validate()
		}
		if err != nil {
			writeError(w, requestID(r), http.StatusBadRequest,
				fmt.Errorf("serve: points[%d]: %w", i, err))
			return
		}
	}
	job := s.jobs.Submit("sweep", rt.name, s.timeoutFor(req.TimeoutMS), func(ctx context.Context, job *Job) error {
		return s.runPoints(ctx, job, rt, points, req.Live)
	})
	s.respondSubmitted(w, r, job)
}

// handleJobResult serves only the deterministic result payload of a
// finished job — no timings, no cache counters, no job envelope — so two
// runs of the same request can be compared byte-for-byte with cmp.
func (s *Server) handleJobResult(w http.ResponseWriter, r *http.Request) {
	job := s.jobOr404(w, r)
	if job == nil {
		return
	}
	payload, ok := job.resultPayload()
	if !ok {
		writeError(w, requestID(r), http.StatusConflict,
			fmt.Errorf("serve: job %s is %s, not done", job.id, job.State()))
		return
	}
	writeJSON(w, http.StatusOK, payload)
}

// respondSubmitted answers a submission: 202 + job reference, or — with
// ?wait=1 — blocks until the job finishes and returns its full record.
func (s *Server) respondSubmitted(w http.ResponseWriter, r *http.Request, job *Job) {
	if wait, _ := strconv.ParseBool(r.URL.Query().Get("wait")); wait {
		select {
		case <-job.Done():
			writeJSON(w, http.StatusOK, job.JSON(false))
		case <-r.Context().Done():
			// Client gave up; the job keeps running and remains pollable.
			writeError(w, requestID(r), http.StatusRequestTimeout, r.Context().Err())
		}
		return
	}
	writeJSON(w, http.StatusAccepted, JobRef{
		JobID:     job.id,
		State:     string(job.State()),
		StatusURL: "/v1/jobs/" + job.id,
		EventsURL: "/v1/jobs/" + job.id + "/events",
		RequestID: requestID(r),
	})
}

func (s *Server) handleJobList(w http.ResponseWriter, r *http.Request) {
	jobs := s.jobs.List()
	out := make([]JobJSON, len(jobs))
	for i, j := range jobs {
		out[i] = j.JSON(true)
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) jobOr404(w http.ResponseWriter, r *http.Request) *Job {
	job := s.jobs.Get(r.PathValue("id"))
	if job == nil {
		writeError(w, requestID(r), http.StatusNotFound,
			fmt.Errorf("serve: unknown job %q", r.PathValue("id")))
	}
	return job
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	if job := s.jobOr404(w, r); job != nil {
		writeJSON(w, http.StatusOK, job.JSON(false))
	}
}

func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	job := s.jobOr404(w, r)
	if job == nil {
		return
	}
	job.Cancel()
	writeJSON(w, http.StatusAccepted, job.JSON(true))
}

// handleJobEvents streams the job's event log — NDJSON by default, SSE
// when the client asks for text/event-stream — replaying history first,
// then following live until the job reaches a terminal state.
func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	job := s.jobOr404(w, r)
	if job == nil {
		return
	}
	sse := strings.Contains(r.Header.Get("Accept"), "text/event-stream")
	if sse {
		w.Header().Set("Content-Type", "text/event-stream")
	} else {
		w.Header().Set("Content-Type", "application/x-ndjson")
	}
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)

	cursor := 0
	for {
		evs, changed, closed := job.events.since(cursor)
		for _, ev := range evs {
			line, err := json.Marshal(ev)
			if err != nil {
				return
			}
			if sse {
				fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.Type, line)
			} else {
				w.Write(line) //nolint:errcheck
				w.Write([]byte("\n"))
			}
		}
		cursor += len(evs)
		if flusher != nil && len(evs) > 0 {
			flusher.Flush()
		}
		if closed && len(evs) == 0 {
			return
		}
		if closed {
			continue // drain whatever raced in before the seal
		}
		select {
		case <-changed:
		case <-r.Context().Done():
			return
		}
	}
}

func (s *Server) handlePrograms(w http.ResponseWriter, r *http.Request) {
	progs, err := Programs()
	if err != nil {
		writeError(w, requestID(r), http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, progs)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	inFlight, accepted := s.metrics.snapshot()
	writeJSON(w, http.StatusOK, Health{
		Status:        "ok",
		UptimeSeconds: time.Since(s.metrics.start).Seconds(),
		JobsInFlight:  inFlight,
		JobsAccepted:  accepted,
		EngineCache:   cacheJSON(s.eng.CacheStats()),
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.metrics.render(w, s.eng.CacheStats())
}
