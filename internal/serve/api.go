// Package serve wraps the staged pipeline engine (internal/engine) as a
// long-running HTTP analysis service: the shape industrial path-sensitive
// analyzers deploy as — many programs, many sweep points, one hot process
// whose artifact cache is shared across requests instead of being rebuilt
// per CLI invocation.
//
// The subsystem has four parts:
//
//   - api.go:     the JSON wire types (requests, results, errors) and the
//     mapping from typed library errors to structured HTTP error bodies;
//   - jobs.go:    the job manager — bounded concurrent jobs, per-job
//     deadlines, cancellation, and a per-job event log that powers the
//     NDJSON/SSE metrics streams;
//   - metrics.go: service-level counters and per-stage time histograms,
//     rendered in Prometheus text exposition format;
//   - server.go:  the HTTP server itself — routing, request IDs, the
//     shared engine.Engine + program/profile memo, graceful shutdown.
//
// Results are deliberately split from timings: a job's "result" object
// holds only deterministic analysis artifacts (graph sizes, hot-path
// counts, discovered constants), so identical requests produce
// byte-identical result JSON no matter which of them raced ahead or hit
// the cache; everything nondeterministic (durations, cache counters)
// lives in the job's "metrics" object.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"time"

	"pathflow/internal/bench"
	"pathflow/internal/constprop"
	"pathflow/internal/dataflow"
	"pathflow/internal/engine"
	"pathflow/internal/profile/stream"
)

// --- Requests -------------------------------------------------------------

// TargetSpec names the program to analyze: either a built-in benchmark
// (by name) or inline mini-language source, plus the interpreter options
// that drive the training run. It mirrors the CLI's target flags
// (-src/-ref/-args/-seed/-inputlen).
type TargetSpec struct {
	// Program is a built-in benchmark name (see GET /v1/programs or
	// `pathflow list`). Mutually exclusive with Source.
	Program string `json:"program,omitempty"`
	// Source is inline mini-language source text.
	Source string `json:"source,omitempty"`
	// Ref selects the benchmark's ref input for training (default:
	// train). Only meaningful with Program.
	Ref bool `json:"ref,omitempty"`
	// Args, Seed and InputLen configure the run of an inline Source
	// (arg(k) values, input() stream seed and length). Defaults match
	// the CLI: seed 1, 4096 input values.
	Args     []int64 `json:"args,omitempty"`
	Seed     uint64  `json:"seed,omitempty"`
	InputLen int     `json:"input_len,omitempty"`
}

// OptionsSpec is the wire form of engine.Options.
type OptionsSpec struct {
	CA float64 `json:"ca"`
	CR float64 `json:"cr"`
	// Clients is a comma-separated list of extra data-flow clients to
	// run on every graph tier: "none" (default), "liveness",
	// "availexpr", or "all" — the same syntax as the CLI's -clients.
	Clients string `json:"clients,omitempty"`
	// Verify runs the precision differential oracle as a final stage;
	// any violation fails the job with a check-stage error.
	Verify bool `json:"verify,omitempty"`
	// Kernel selects the data-flow solver backend: "packed" (default,
	// the allocation-free arena kernels) or "boxed" — the same syntax as
	// the CLI's -kernel. Both produce identical facts. "boxed" is the
	// test reference for differential checks, not a production choice.
	Kernel string `json:"kernel,omitempty"`
	// Feasible runs the feasible-path qualification pass: the branch-
	// correlation detector computes a sound infeasible-edge set per graph
	// tier and every client analyzes the pruned view — the same switch as
	// the CLI's -feasible.
	Feasible bool `json:"feasible,omitempty"`
}

func (o OptionsSpec) engine() (engine.Options, error) {
	cs, err := engine.ParseClients(o.Clients)
	if err != nil {
		return engine.Options{}, err
	}
	k, err := engine.ParseKernel(o.Kernel)
	if err != nil {
		return engine.Options{}, err
	}
	return engine.Options{CA: o.CA, CR: o.CR, Clients: cs, Verify: o.Verify, Kernel: k, Feasible: o.Feasible}, nil
}

func specOf(o engine.Options) OptionsSpec {
	spec := OptionsSpec{CA: o.CA, CR: o.CR, Verify: o.Verify, Feasible: o.Feasible}
	if o.Clients != 0 {
		spec.Clients = o.Clients.String()
	}
	if o.Kernel != dataflow.KernelPacked {
		spec.Kernel = o.Kernel.String()
	}
	return spec
}

// AnalyzeRequest is the body of POST /v1/analyze.
type AnalyzeRequest struct {
	TargetSpec
	// Options are the pipeline knobs; omitted means the paper's
	// recommended CA = 0.97, CR = 0.95.
	Options *OptionsSpec `json:"options,omitempty"`
	// TimeoutMS bounds the job (queue wait included); 0 means the
	// server's default deadline.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// Live analyzes against the target's live streamed profile
	// (POST /v1/profiles deltas merged into the decaying accumulators)
	// instead of the training snapshot. Undrifted functions replay from
	// cache and drifted ones recompute only the selection-downstream
	// suffix; the job sends each function's delta class as a `delta`
	// event.
	Live bool `json:"live,omitempty"`
}

// SweepRequest is the body of POST /v1/sweep: one program analyzed at
// every listed parameter point, in order, sharing the artifact cache.
type SweepRequest struct {
	TargetSpec
	Points    []OptionsSpec `json:"points"`
	TimeoutMS int64         `json:"timeout_ms,omitempty"`
	// Live sweeps against the live streamed profile (see
	// AnalyzeRequest.Live).
	Live bool `json:"live,omitempty"`
}

// --- Results --------------------------------------------------------------

// ConstFact is one non-local constant the qualified analysis discovered
// on the final (reduced) graph: at node Node, register Var holds Value.
type ConstFact struct {
	Node  int    `json:"node"`
	Block string `json:"block,omitempty"`
	Var   string `json:"var"`
	Value int64  `json:"value"`
}

// FuncSummary is the per-function analysis outcome.
type FuncSummary struct {
	Name            string      `json:"name"`
	Nodes           int         `json:"nodes"`
	HPGNodes        int         `json:"hpg_nodes"`
	ReducedNodes    int         `json:"reduced_nodes"`
	HotPaths        int         `json:"hot_paths"`
	AutomatonStates int         `json:"automaton_states"`
	Qualified       bool        `json:"qualified"`
	Consts          []ConstFact `json:"consts,omitempty"`
}

// ResultTotals aggregates program-level sizes.
type ResultTotals struct {
	OrigNodes    int `json:"orig_nodes"`
	HPGNodes     int `json:"hpg_nodes"`
	ReducedNodes int `json:"reduced_nodes"`
	HotPaths     int `json:"hot_paths"`
	TrainPaths   int `json:"train_paths"`
	Consts       int `json:"consts"`
}

// AnalyzeResult is the deterministic analysis outcome of one parameter
// point. It intentionally contains no timings and no cache counters, so
// two identical requests marshal to byte-identical JSON regardless of
// scheduling or cache state.
type AnalyzeResult struct {
	Program   string        `json:"program"`
	Options   OptionsSpec   `json:"options"`
	Functions []FuncSummary `json:"functions"`
	Totals    ResultTotals  `json:"totals"`
}

// buildResult projects an engine.ProgramResult onto the wire form.
// Functions appear in program order and constants in node/instruction
// order, so the encoding is deterministic.
func buildResult(name string, o engine.Options, res *engine.ProgramResult) *AnalyzeResult {
	out := &AnalyzeResult{Program: name, Options: specOf(o)}
	for _, fname := range res.Prog.Order {
		fs := funcSummary(fname, res.Funcs[fname])
		out.Totals.Consts += len(fs.Consts)
		out.Functions = append(out.Functions, fs)
	}
	st := res.Stats()
	out.Totals.OrigNodes = st.OrigNodes
	out.Totals.HPGNodes = st.HPGNodes
	out.Totals.ReducedNodes = st.RedNodes
	out.Totals.HotPaths = st.HotPaths
	out.Totals.TrainPaths = st.TrainPaths
	return out
}

// funcSummary projects one function's result onto the wire form.
func funcSummary(fname string, fr *engine.FuncResult) FuncSummary {
	fs := FuncSummary{
		Name:         fname,
		Nodes:        fr.Fn.G.NumNodes(),
		HPGNodes:     fr.Fn.G.NumNodes(),
		ReducedNodes: fr.Fn.G.NumNodes(),
		HotPaths:     len(fr.Hot),
		Qualified:    fr.Qualified(),
	}
	if fr.Qualified() {
		fs.HPGNodes = fr.HPG.G.NumNodes()
		fs.ReducedNodes = fr.Red.G.NumNodes()
		fs.AutomatonStates = fr.Auto.NumStates()
		fs.Consts = collectConsts(fr)
	}
	return fs
}

// collectConsts lists the non-local constants on the reduced graph — the
// same facts `pathflow analyze -consts` prints.
func collectConsts(fr *engine.FuncResult) []ConstFact {
	g := fr.Red.G
	sol := fr.RedSol
	numVars := fr.Fn.NumVars()
	var out []ConstFact
	for _, nd := range g.Nodes {
		if !sol.Reached(nd.ID) {
			continue
		}
		flags := constprop.ConstFlags(g, nd.ID, sol.EnvAt(nd.ID), numVars, true)
		vals := sol.InstrValues(nd.ID)
		for i := range nd.Instrs {
			if !flags[i] {
				continue
			}
			out = append(out, ConstFact{
				Node:  int(nd.ID),
				Block: nd.Name,
				Var:   fr.Fn.VarName(nd.Instrs[i].Dst),
				Value: vals[i].K,
			})
		}
	}
	return out
}

// --- Job metrics ----------------------------------------------------------

// StageStat is one stage's aggregate cost within a job. DiskHits counts
// the subset of CacheHits decoded from the persistent tier. Replayed
// mirrors CacheHits under the incremental re-analysis vocabulary — the
// stage was served from a cache tier instead of recomputed — and
// DecodeMS is the disk-decode time those replays actually cost (never
// folded into DurationMS, which stays the stored compute cost).
type StageStat struct {
	DurationMS float64 `json:"duration_ms"`
	DecodeMS   float64 `json:"decode_ms,omitempty"`
	Runs       int     `json:"runs"`
	CacheHits  int     `json:"cache_hits"`
	Replayed   int     `json:"replayed"`
	DiskHits   int     `json:"disk_hits,omitempty"`
}

// DiskStatsJSON is the wire form of the persistent tier's counters.
type DiskStatsJSON struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Rejects   int64 `json:"rejects"`
	Writes    int64 `json:"writes"`
	Evictions int64 `json:"evictions"`
	Entries   int   `json:"entries"`
	Bytes     int64 `json:"bytes"`
}

// CacheStatsJSON is the wire form of engine.CacheStats: in-memory tier
// counters plus, when a CacheDir is configured, the disk tier's.
type CacheStatsJSON struct {
	Hits         int64          `json:"hits"`
	Misses       int64          `json:"misses"`
	Entries      int            `json:"entries"`
	Bytes        int64          `json:"bytes,omitempty"`
	MemEvictions int64          `json:"mem_evictions,omitempty"`
	Disk         *DiskStatsJSON `json:"disk,omitempty"`
}

func cacheJSON(s engine.CacheStats) CacheStatsJSON {
	out := CacheStatsJSON{
		Hits:         s.Hits,
		Misses:       s.Misses,
		Entries:      s.Entries,
		Bytes:        s.Bytes,
		MemEvictions: s.MemEvictions,
	}
	if s.DiskEnabled {
		out.Disk = &DiskStatsJSON{
			Hits:      s.Disk.Hits,
			Misses:    s.Disk.Misses,
			Rejects:   s.Disk.Rejects,
			Writes:    s.Disk.Writes,
			Evictions: s.Disk.Evictions,
			Entries:   s.Disk.Entries,
			Bytes:     s.Disk.Bytes,
		}
	}
	return out
}

// JobMetrics is everything nondeterministic about a job: wall-clock,
// per-stage costs and cache effectiveness. StageRuns/StageCacheHits
// total the per-stage counters; EngineCache is a snapshot of the shared
// engine's cumulative cache counters taken when the job finished.
type JobMetrics struct {
	WallMS         float64              `json:"wall_ms"`
	ProfileMS      float64              `json:"profile_ms"`
	ProfileCached  bool                 `json:"profile_cached"`
	Stages         map[string]StageStat `json:"stages"`
	StageRuns      int                  `json:"stage_runs"`
	StageCacheHits int                  `json:"stage_cache_hits"`
	StageReplayed  int                  `json:"stage_replayed"`
	StageDiskHits  int                  `json:"stage_disk_hits,omitempty"`
	EngineCache    CacheStatsJSON       `json:"engine_cache"`
}

// addProgram folds one program result's per-function metrics into jm.
func (jm *JobMetrics) addProgram(res *engine.ProgramResult) {
	if jm.Stages == nil {
		jm.Stages = map[string]StageStat{}
	}
	for _, fr := range res.Funcs {
		if fr.Metrics == nil {
			continue
		}
		for s, sm := range fr.Metrics.Stages {
			st := jm.Stages[string(s)]
			st.DurationMS += durMS(sm.Duration)
			st.DecodeMS += durMS(sm.Decode)
			st.Runs += sm.Runs
			st.CacheHits += sm.CacheHits
			st.Replayed += sm.CacheHits
			st.DiskHits += sm.DiskHits
			jm.Stages[string(s)] = st
			jm.StageRuns += sm.Runs
			jm.StageCacheHits += sm.CacheHits
			jm.StageReplayed += sm.CacheHits
			jm.StageDiskHits += sm.DiskHits
		}
	}
}

func durMS(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// --- Errors ---------------------------------------------------------------

// ErrorBody is the structured JSON error every non-2xx response carries.
type ErrorBody struct {
	Error string `json:"error"`
	// Hint is the same remediation text the CLI prints for the error
	// (engine.InvalidOptionsError.Hint, bench.UnknownBenchmarkError.Hint).
	Hint string `json:"hint,omitempty"`
	// Stage/Func carry engine.StageError provenance for failed jobs.
	Stage     string `json:"stage,omitempty"`
	Func      string `json:"func,omitempty"`
	RequestID string `json:"request_id,omitempty"`
}

// errorBody maps an error to its wire form, pulling hints and provenance
// from the typed errors the libraries already define — no validation or
// hint text is duplicated here.
func errorBody(err error) ErrorBody {
	b := ErrorBody{Error: err.Error()}
	var inv *engine.InvalidOptionsError
	if errors.As(err, &inv) {
		b.Hint = inv.Hint()
	}
	var ub *bench.UnknownBenchmarkError
	if errors.As(err, &ub) {
		b.Hint = ub.Hint()
	}
	var uc *engine.UnknownClientError
	if errors.As(err, &uc) {
		b.Hint = uc.Hint()
	}
	var uk *engine.UnknownKernelError
	if errors.As(err, &uk) {
		b.Hint = uk.Hint()
	}
	var be *stream.BatchError
	if errors.As(err, &be) {
		b.Hint = be.Hint()
	}
	var tl *BodyTooLargeError
	if errors.As(err, &tl) {
		b.Hint = tl.Hint()
	}
	var il *InputLenError
	if errors.As(err, &il) {
		b.Hint = il.Hint()
	}
	var se *engine.StageError
	if errors.As(err, &se) {
		b.Stage = string(se.Stage)
		b.Func = se.Func
	}
	if errors.Is(err, context.DeadlineExceeded) {
		b.Hint = "job deadline exceeded; raise timeout_ms or the server's -timeout"
	}
	return b
}

// statusFor maps request-validation errors to HTTP status codes: unknown
// program names are 404, oversized bodies 413, an over-limit input_len
// 422, every other bad input is 400.
func statusFor(err error) int {
	var ub *bench.UnknownBenchmarkError
	if errors.As(err, &ub) {
		return http.StatusNotFound
	}
	var tl *BodyTooLargeError
	if errors.As(err, &tl) {
		return http.StatusRequestEntityTooLarge
	}
	var il *InputLenError
	if errors.As(err, &il) {
		return http.StatusUnprocessableEntity
	}
	return http.StatusBadRequest
}

// writeError emits a structured error body with the request's ID.
func writeError(w http.ResponseWriter, reqID string, status int, err error) {
	b := errorBody(err)
	b.RequestID = reqID
	writeJSON(w, status, b)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // client gone is not actionable
}

// --- Misc wire types ------------------------------------------------------

// JobRef is the 202 Accepted body pointing at a submitted job.
type JobRef struct {
	JobID     string `json:"job_id"`
	State     string `json:"state"`
	StatusURL string `json:"status_url"`
	EventsURL string `json:"events_url"`
	RequestID string `json:"request_id,omitempty"`
}

// Health is the GET /healthz body.
type Health struct {
	Status        string         `json:"status"`
	UptimeSeconds float64        `json:"uptime_seconds"`
	JobsInFlight  int            `json:"jobs_in_flight"`
	JobsAccepted  int64          `json:"jobs_accepted"`
	EngineCache   CacheStatsJSON `json:"engine_cache"`
}

// ProgramInfo describes one built-in benchmark (GET /v1/programs).
type ProgramInfo struct {
	Name      string `json:"name"`
	Nodes     int    `json:"nodes"`
	Functions int    `json:"functions"`
	Instrs    int    `json:"instrs"`
}

// Programs lists the suite.
func Programs() ([]ProgramInfo, error) {
	var out []ProgramInfo
	for _, b := range bench.All() {
		prog, err := b.Program()
		if err != nil {
			return nil, err
		}
		out = append(out, ProgramInfo{
			Name:      b.Name,
			Nodes:     prog.NumNodes(),
			Functions: len(prog.Order),
			Instrs:    prog.NumInstrs(),
		})
	}
	return out, nil
}
