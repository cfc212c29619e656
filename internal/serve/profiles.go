package serve

import (
	"fmt"
	"hash/fnv"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"pathflow/internal/bl"
	"pathflow/internal/engine"
	"pathflow/internal/engine/diskcache"
	"pathflow/internal/profile/stream"
)

// This file is the streaming-profile side of the service: the
// POST /v1/profiles ingestion endpoint feeding per-target decaying
// accumulator sets (internal/profile/stream), drift detection against
// the profile the cached artifacts were built from, and the baseline
// the live-profile analyze path (runPoints with live set) diffs against
// and advances.

// targetStream is one analysis target's live profile state: the
// decaying accumulator set plus the program profile (and CA) the last
// analysis actually ran against — the baseline drift is measured from.
type targetStream struct {
	set *stream.Set

	mu         sync.Mutex
	analyzed   *bl.ProgramProfile
	analyzedCA float64
}

// baseline returns the profile and CA the cached artifacts were built
// from: the last live-analyzed pair, or the training profile at the
// default CA before any live analysis ran (a plain analyze uses
// exactly that pair, so the fallback is the true cache content).
func (ts *targetStream) baseline(train *bl.ProgramProfile) (*bl.ProgramProfile, float64) {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	if ts.analyzed != nil {
		return ts.analyzed, ts.analyzedCA
	}
	return train, engine.DefaultOptions().CA
}

func (ts *targetStream) setAnalyzed(pp *bl.ProgramProfile, ca float64) {
	ts.mu.Lock()
	ts.analyzed, ts.analyzedCA = pp, ca
	ts.mu.Unlock()
}

// streamFor returns the target's stream, creating it on first touch:
// restored from the persistent snapshot when one survives under the
// cache dir, otherwise seeded from the training profile (so an empty
// stream materializes exactly the profile plain analyses use and
// nothing recomputes). The training run itself is single-flight via
// the program memo; the second return hands it to the caller so the
// profile is not computed twice.
func (s *Server) streamFor(rt *resolvedTarget) (*targetStream, *bl.ProgramProfile, error) {
	train, profMS, memoHit, err := s.memo.trainProfile(rt)
	if err != nil {
		return nil, nil, err
	}
	s.metrics.observeProfile(time.Duration(profMS*float64(time.Millisecond)), memoHit)

	s.streamsMu.Lock()
	ts, ok := s.streams[rt.key]
	s.streamsMu.Unlock()
	if ok {
		return ts, train, nil
	}

	set := s.loadStreamSnapshot(rt)
	if set == nil {
		set = stream.NewSet(rt.prog, train)
	}
	ts = &targetStream{set: set}

	s.streamsMu.Lock()
	defer s.streamsMu.Unlock()
	if prior, ok := s.streams[rt.key]; ok {
		return prior, train, nil // lost the race; first seed wins
	}
	s.streams[rt.key] = ts
	return ts, train, nil
}

// streamSnapshotPath is the stream snapshot file for a target key. The
// key embeds inline source text, so it is hashed rather than
// sanitized.
func (s *Server) streamSnapshotPath(key string) string {
	h := fnv.New64a()
	h.Write([]byte(key)) //nolint:errcheck // fnv never fails
	return filepath.Join(s.cfg.CacheDir, "streams", fmt.Sprintf("%016x.pfac", h.Sum64()))
}

// loadStreamSnapshot restores a persisted stream for rt, or nil when
// there is no cache dir, no snapshot, or the snapshot fails validation
// (corrupt or from a different program version — treated like a cache
// miss: the stream reseeds from the training profile).
func (s *Server) loadStreamSnapshot(rt *resolvedTarget) *stream.Set {
	if s.cfg.CacheDir == "" {
		return nil
	}
	data, err := os.ReadFile(s.streamSnapshotPath(rt.key))
	if err != nil {
		return nil
	}
	_, set, err := diskcache.DecodeStream(data, rt.prog)
	if err != nil {
		return nil
	}
	return set
}

// saveStreams persists every live stream under the cache dir (atomic
// temp+rename, like the artifact store) so accumulated counts and
// ingestion sequence numbers survive a restart. Called at drain; a
// no-op without a cache dir.
func (s *Server) saveStreams() {
	if s.cfg.CacheDir == "" {
		return
	}
	s.streamsMu.Lock()
	streams := make(map[string]*targetStream, len(s.streams))
	for k, ts := range s.streams {
		streams[k] = ts
	}
	s.streamsMu.Unlock()
	if len(streams) == 0 {
		return
	}
	dir := filepath.Join(s.cfg.CacheDir, "streams")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return
	}
	for key, ts := range streams {
		data := diskcache.EncodeStream(diskcache.Meta{}, ts.set.Snapshot())
		path := s.streamSnapshotPath(key)
		tmp := path + ".tmp"
		if err := os.WriteFile(tmp, data, 0o644); err != nil {
			continue
		}
		os.Rename(tmp, path) //nolint:errcheck // best-effort persistence
	}
}

// --- Wire types -------------------------------------------------------------

// IngestRequest is the body of POST /v1/profiles: one batch of path-
// counter deltas for a target. Agent names the producing collector;
// per-(agent, function) sequence numbers make redelivery idempotent
// (stream.Batch semantics — the batch validates atomically and
// replayed sequence numbers drop silently).
type IngestRequest struct {
	TargetSpec
	// Agent identifies the delta source (stream.Batch.Source).
	Agent string `json:"agent,omitempty"`
	// AdvanceEpoch decays the whole distribution one epoch before the
	// batch lands, so fresh samples weigh in at full strength against
	// an aged history.
	AdvanceEpoch bool `json:"advance_epoch,omitempty"`
	// Funcs are the per-function deltas.
	Funcs []stream.FuncDelta `json:"funcs"`
}

// IngestResponse reports what the batch did and the drift it caused:
// per-function verdicts comparing the live hot-set selection against
// the profile the cached artifacts were built from.
type IngestResponse struct {
	Applied   int                `json:"applied"`
	Dropped   int                `json:"dropped"`
	Epoch     uint64             `json:"epoch"`
	Drift     []stream.FuncDrift `json:"drift"`
	RequestID string             `json:"request_id,omitempty"`
}

// StreamPathState is one path's live decayed count.
type StreamPathState struct {
	Path  string `json:"path"`
	Count int64  `json:"count"`
}

// StreamFuncState is one function's live stream state. Paths are
// ordered hot→cold (count descending, path key ascending on ties), so
// the head is the current hot-set prefix and the tail is the coldest
// traffic.
type StreamFuncState struct {
	Func      string            `json:"func"`
	NumPaths  int               `json:"num_paths"`
	Changed   bool              `json:"changed"`
	Requalify bool              `json:"requalify"`
	Paths     []StreamPathState `json:"paths"`
}

// StreamStateResponse is the body of GET /v1/profiles.
type StreamStateResponse struct {
	Program string            `json:"program"`
	Epoch   uint64            `json:"epoch"`
	Funcs   []StreamFuncState `json:"funcs"`
}

// --- Handlers ---------------------------------------------------------------

func (s *Server) handleProfileIngest(w http.ResponseWriter, r *http.Request) {
	var req IngestRequest
	if err := decodeBody(w, r, &req); err != nil {
		writeError(w, requestID(r), statusFor(err), err)
		return
	}
	rt, err := resolveTarget(&req.TargetSpec)
	if err != nil {
		writeError(w, requestID(r), statusFor(err), err)
		return
	}
	ts, train, err := s.streamFor(rt)
	if err != nil {
		writeError(w, requestID(r), http.StatusInternalServerError, err)
		return
	}
	st, err := ts.set.Apply(&stream.Batch{
		Source:       req.Agent,
		AdvanceEpoch: req.AdvanceEpoch,
		Funcs:        req.Funcs,
	})
	if err != nil {
		writeError(w, requestID(r), http.StatusBadRequest, err)
		return
	}
	prev, ca := ts.baseline(train)
	drift := stream.DetectDrift(prev, ts.set.Profile(), rt.prog, ca)
	requalify := 0
	for _, d := range drift {
		if d.Requalify {
			requalify++
		}
	}
	s.metrics.observeIngest(st.Applied, st.Dropped, requalify)
	writeJSON(w, http.StatusOK, IngestResponse{
		Applied:   st.Applied,
		Dropped:   st.Dropped,
		Epoch:     st.Epoch,
		Drift:     drift,
		RequestID: requestID(r),
	})
}

func (s *Server) handleProfileState(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	spec := TargetSpec{Program: q.Get("program"), Source: q.Get("source")}
	if ref, _ := strconv.ParseBool(q.Get("ref")); ref {
		spec.Ref = true
	}
	// Inline-source targets are keyed by their training inputs too, so
	// the state query must accept the same knobs the POST body carries.
	for _, a := range strings.Split(q.Get("args"), ",") {
		if a == "" {
			continue
		}
		v, err := strconv.ParseInt(a, 10, 64)
		if err != nil {
			writeError(w, requestID(r), http.StatusBadRequest,
				fmt.Errorf("serve: bad args value %q: %w", a, err))
			return
		}
		spec.Args = append(spec.Args, v)
	}
	spec.Seed, _ = strconv.ParseUint(q.Get("seed"), 10, 64)
	spec.InputLen, _ = strconv.Atoi(q.Get("input_len"))
	rt, err := resolveTarget(&spec)
	if err != nil {
		writeError(w, requestID(r), statusFor(err), err)
		return
	}
	ts, train, err := s.streamFor(rt)
	if err != nil {
		writeError(w, requestID(r), http.StatusInternalServerError, err)
		return
	}
	live := ts.set.Profile()
	prev, ca := ts.baseline(train)
	drift := stream.DetectDrift(prev, live, rt.prog, ca)
	byFunc := make(map[string]stream.FuncDrift, len(drift))
	for _, d := range drift {
		byFunc[d.Func] = d
	}
	filter := q.Get("func")
	out := StreamStateResponse{Program: rt.name, Epoch: ts.set.Epoch()}
	for _, name := range rt.prog.Order {
		if filter != "" && name != filter {
			continue
		}
		fs := StreamFuncState{
			Func:      name,
			Changed:   byFunc[name].Changed,
			Requalify: byFunc[name].Requalify,
		}
		if pr := live.Funcs[name]; pr != nil {
			for _, e := range pr.Entries {
				fs.Paths = append(fs.Paths, StreamPathState{Path: e.Path.Key(), Count: e.Count})
			}
			sort.Slice(fs.Paths, func(i, j int) bool {
				if fs.Paths[i].Count != fs.Paths[j].Count {
					return fs.Paths[i].Count > fs.Paths[j].Count
				}
				return fs.Paths[i].Path < fs.Paths[j].Path
			})
			fs.NumPaths = len(fs.Paths)
		}
		out.Funcs = append(out.Funcs, fs)
	}
	if filter != "" && len(out.Funcs) == 0 {
		writeError(w, requestID(r), http.StatusNotFound,
			fmt.Errorf("serve: unknown function %q", filter))
		return
	}
	writeJSON(w, http.StatusOK, out)
}
