package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"

	"pathflow/internal/engine"
	"pathflow/internal/profile/stream"
)

// streamQuery is the GET /v1/profiles query addressing the same target
// analyzeBody posts to (inline source keyed by its training args).
func streamQuery(extra string) string {
	q := "/v1/profiles?source=" + url.QueryEscape(testSrc) + "&args=120"
	if extra != "" {
		q += "&" + extra
	}
	return q
}

func ingestBody(t *testing.T, agent string, advance bool, funcs []stream.FuncDelta) []byte {
	t.Helper()
	b, err := json.Marshal(IngestRequest{
		TargetSpec:   TargetSpec{Source: testSrc, Args: []int64{120}},
		Agent:        agent,
		AdvanceEpoch: advance,
		Funcs:        funcs,
	})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func streamState(t *testing.T, baseURL, extra string) StreamStateResponse {
	t.Helper()
	resp, data := getBody(t, baseURL+streamQuery(extra))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/profiles status = %d, body %s", resp.StatusCode, data)
	}
	var out StreamStateResponse
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatalf("state body not JSON: %v\n%s", err, data)
	}
	return out
}

// funcState finds one function's state, failing if absent.
func funcState(t *testing.T, st StreamStateResponse, name string) StreamFuncState {
	t.Helper()
	for _, f := range st.Funcs {
		if f.Func == name {
			return f
		}
	}
	t.Fatalf("function %q missing from stream state: %+v", name, st.Funcs)
	return StreamFuncState{}
}

// TestProfileIngestLifecycle walks the ingestion endpoint end to end:
// the pre-ingest state mirrors the training profile, a valid batch
// applies and shows up in the state, a redelivered batch drops
// idempotently, and invalid batches 400 atomically with the stream
// layer's hint.
func TestProfileIngestLifecycle(t *testing.T) {
	srv := mustNew(t, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.jobs.Shutdown()

	st := streamState(t, ts.URL, "")
	if st.Epoch != 0 {
		t.Fatalf("fresh stream epoch = %d, want 0", st.Epoch)
	}
	helper := funcState(t, st, "helper")
	if helper.NumPaths == 0 {
		t.Fatal("helper has no trained paths; fixture too small")
	}
	if helper.Changed || helper.Requalify {
		t.Fatalf("untouched helper reports drift: %+v", helper)
	}
	// Paths arrive hot→cold.
	for i := 1; i < len(helper.Paths); i++ {
		if helper.Paths[i].Count > helper.Paths[i-1].Count {
			t.Fatalf("paths not ordered hot→cold: %+v", helper.Paths)
		}
	}
	hot := helper.Paths[0]

	// A valid delta applies and is visible in the next state read.
	resp, data := postJSON(t, ts.URL+"/v1/profiles", ingestBody(t, "agent-1", false,
		[]stream.FuncDelta{{Func: "helper", Seq: 1, Paths: []stream.PathDelta{{Path: hot.Path, Count: 1000}}}}))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest status = %d, body %s", resp.StatusCode, data)
	}
	var ir IngestResponse
	if err := json.Unmarshal(data, &ir); err != nil {
		t.Fatal(err)
	}
	if ir.Applied != 1 || ir.Dropped != 0 {
		t.Fatalf("ingest applied %d dropped %d, want 1/0", ir.Applied, ir.Dropped)
	}
	got := funcState(t, streamState(t, ts.URL, "func=helper"), "helper")
	if want := hot.Count + 1000; got.Paths[0].Count != want {
		t.Fatalf("hot path count = %d after ingest, want %d", got.Paths[0].Count, want)
	}

	// Redelivery (same agent, same seq) drops without changing counts.
	resp, data = postJSON(t, ts.URL+"/v1/profiles", ingestBody(t, "agent-1", false,
		[]stream.FuncDelta{{Func: "helper", Seq: 1, Paths: []stream.PathDelta{{Path: hot.Path, Count: 1000}}}}))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("replay status = %d, body %s", resp.StatusCode, data)
	}
	ir = IngestResponse{}
	if err := json.Unmarshal(data, &ir); err != nil {
		t.Fatal(err)
	}
	if ir.Applied != 0 || ir.Dropped != 1 {
		t.Fatalf("replay applied %d dropped %d, want 0/1", ir.Applied, ir.Dropped)
	}
	again := funcState(t, streamState(t, ts.URL, "func=helper"), "helper")
	if again.Paths[0].Count != got.Paths[0].Count {
		t.Fatal("replayed batch changed the distribution")
	}

	// An invalid batch 400s with the stream layer's hint and mutates
	// nothing (atomicity: the valid leading delta must not land).
	resp, data = postJSON(t, ts.URL+"/v1/profiles", ingestBody(t, "agent-1", false,
		[]stream.FuncDelta{
			{Func: "helper", Seq: 2, Paths: []stream.PathDelta{{Path: hot.Path, Count: 5}}},
			{Func: "nosuch", Seq: 1, Paths: []stream.PathDelta{{Path: "0", Count: 1}}},
		}))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad batch status = %d, body %s", resp.StatusCode, data)
	}
	var eb ErrorBody
	if err := json.Unmarshal(data, &eb); err != nil {
		t.Fatalf("error body not JSON: %v\n%s", err, data)
	}
	if eb.Hint == "" {
		t.Errorf("batch rejection carries no hint: %s", data)
	}
	after := funcState(t, streamState(t, ts.URL, "func=helper"), "helper")
	if after.Paths[0].Count != got.Paths[0].Count {
		t.Fatal("rejected batch mutated the stream")
	}

	// Unknown function filter → 404.
	resp, _ = getBody(t, ts.URL+streamQuery("func=nosuch"))
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown func filter status = %d, want 404", resp.StatusCode)
	}
}

// liveAnalyzeBody is analyzeBody with Live set.
func liveAnalyzeBody(t *testing.T) []byte {
	t.Helper()
	b, err := json.Marshal(AnalyzeRequest{
		TargetSpec: TargetSpec{Source: testSrc, Args: []int64{120}},
		Options:    &OptionsSpec{CA: 0.97, CR: 0.95},
		Live:       true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// flipBody builds the hot-set-flipping ingest: a huge count on the
// function's coldest path, enough to reorder (or grow) the selection.
func flipBody(t *testing.T, baseURL string, seq uint64) []byte {
	t.Helper()
	helper := funcState(t, streamState(t, baseURL, "func=helper"), "helper")
	cold := helper.Paths[len(helper.Paths)-1]
	return ingestBody(t, "flipper", false, []stream.FuncDelta{
		{Func: "helper", Seq: seq, Paths: []stream.PathDelta{{Path: cold.Path, Count: 50_000_000}}},
	})
}

// TestLiveAnalyzeRequalifiesOnlyDrift is the heart of the tentpole: a
// warmed server ingests a hot-set-flipping batch, and the next live
// analyze recomputes only the drifted function's StageSelect-downstream
// artifacts — everything else (and every baseline stage) replays from
// cache — while answering byte-identically to a cold server that never
// had a cache to replay from.
func TestLiveAnalyzeRequalifiesOnlyDrift(t *testing.T) {
	srv := mustNew(t, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.jobs.Shutdown()

	// Warm: plain analyze at the default knobs fills the cache with
	// artifacts built from the training profile.
	resp, data := postJSON(t, ts.URL+"/v1/analyze?wait=1", analyzeBody(t))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warm analyze status = %d: %s", resp.StatusCode, data)
	}

	// Ingest the flip; the response must flag helper for requalification.
	resp, data = postJSON(t, ts.URL+"/v1/profiles", flipBody(t, ts.URL, 1))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("flip ingest status = %d: %s", resp.StatusCode, data)
	}
	var ir IngestResponse
	if err := json.Unmarshal(data, &ir); err != nil {
		t.Fatal(err)
	}
	var helperDrift *stream.FuncDrift
	for i := range ir.Drift {
		if ir.Drift[i].Func == "helper" {
			helperDrift = &ir.Drift[i]
		} else if ir.Drift[i].Requalify {
			t.Fatalf("untouched %s flagged for requalification", ir.Drift[i].Func)
		}
	}
	if helperDrift == nil || !helperDrift.Requalify {
		t.Fatalf("flip did not flag helper for requalification: %+v", ir.Drift)
	}

	// The requalification counter is live on /metrics.
	_, mdata := getBody(t, ts.URL+"/metrics")
	metrics := string(mdata)
	for _, want := range []string{"pathflow_profile_ingest_total 1", "pathflow_drift_requalify_total"} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q:\n%s", want, metrics)
		}
	}

	// Live analyze: replay everything except helper's dirty suffix.
	resp, data = postJSON(t, ts.URL+"/v1/analyze?wait=1", liveAnalyzeBody(t))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("live analyze status = %d: %s", resp.StatusCode, data)
	}
	warm := decodeJob(t, data)
	if warm.State != JobDone {
		t.Fatalf("live job state = %q (error %+v)", warm.State, warm.Error)
	}
	if bs := warm.Metrics.Stages[string(engine.StageBaseline)]; bs.Runs != bs.CacheHits || bs.CacheHits == 0 {
		t.Errorf("baseline stage recomputed on an unchanged program (want every run a replay): %+v", bs)
	}
	if ss := warm.Metrics.Stages[string(engine.StageSelect)]; ss.Runs <= ss.CacheHits {
		t.Errorf("select stage never recomputed despite a flipped hot set: %+v", ss)
	}
	if warm.Metrics.StageCacheHits == 0 {
		t.Fatalf("live analyze replayed nothing: %+v", warm.Metrics)
	}

	// Byte-identity: a cold server fed the same delta computes the same
	// answer with no cache to lean on — and does strictly more stage
	// work than the warm server's replay-plus-requalify.
	cold := mustNew(t, Config{})
	tsCold := httptest.NewServer(cold.Handler())
	defer tsCold.Close()
	defer cold.jobs.Shutdown()
	resp, data = postJSON(t, tsCold.URL+"/v1/profiles", flipBody(t, tsCold.URL, 1))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cold ingest status = %d: %s", resp.StatusCode, data)
	}
	resp, data = postJSON(t, tsCold.URL+"/v1/analyze?wait=1", liveAnalyzeBody(t))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cold live analyze status = %d: %s", resp.StatusCode, data)
	}
	coldJob := decodeJob(t, data)
	if coldJob.State != JobDone {
		t.Fatalf("cold live job state = %q (error %+v)", coldJob.State, coldJob.Error)
	}
	warmBytes, err := json.Marshal(warm.Result)
	if err != nil {
		t.Fatal(err)
	}
	coldBytes, err := json.Marshal(coldJob.Result)
	if err != nil {
		t.Fatal(err)
	}
	if string(warmBytes) != string(coldBytes) {
		t.Fatalf("requalified result diverges from cold recompute:\nwarm: %s\ncold: %s", warmBytes, coldBytes)
	}
	warmComputed := warm.Metrics.StageRuns - warm.Metrics.StageCacheHits
	coldComputed := coldJob.Metrics.StageRuns - coldJob.Metrics.StageCacheHits
	if warmComputed >= coldComputed {
		t.Errorf("warm live analyze computed %d stages, cold computed %d — requalification saved nothing",
			warmComputed, coldComputed)
	}
}

// TestStreamSnapshotPersistence: accumulated counts and per-agent
// sequence numbers survive a server restart through the diskcache
// snapshot, so redelivered batches still drop after the restart.
func TestStreamSnapshotPersistence(t *testing.T) {
	dir := t.TempDir()

	a := mustNew(t, Config{CacheDir: dir})
	tsA := httptest.NewServer(a.Handler())
	st := streamState(t, tsA.URL, "func=helper")
	hot := funcState(t, st, "helper").Paths[0]
	resp, data := postJSON(t, tsA.URL+"/v1/profiles", ingestBody(t, "agent-1", false,
		[]stream.FuncDelta{{Func: "helper", Seq: 1, Paths: []stream.PathDelta{{Path: hot.Path, Count: 777}}}}))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest status = %d: %s", resp.StatusCode, data)
	}
	a.saveStreams()
	tsA.Close()
	a.jobs.Shutdown()

	b := mustNew(t, Config{CacheDir: dir})
	tsB := httptest.NewServer(b.Handler())
	defer tsB.Close()
	defer b.jobs.Shutdown()
	got := funcState(t, streamState(t, tsB.URL, "func=helper"), "helper")
	if want := hot.Count + 777; got.Paths[0].Count != want {
		t.Fatalf("restored hot count = %d, want %d (ingested state lost)", got.Paths[0].Count, want)
	}
	// The restored seq table still rejects the replay.
	resp, data = postJSON(t, tsB.URL+"/v1/profiles", ingestBody(t, "agent-1", false,
		[]stream.FuncDelta{{Func: "helper", Seq: 1, Paths: []stream.PathDelta{{Path: hot.Path, Count: 777}}}}))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("replay status = %d: %s", resp.StatusCode, data)
	}
	var ir IngestResponse
	if err := json.Unmarshal(data, &ir); err != nil {
		t.Fatal(err)
	}
	if ir.Applied != 0 || ir.Dropped != 1 {
		t.Fatalf("restart forgot sequence numbers: %+v", ir)
	}
}

// TestConcurrentIngestSweepAndLive hammers one server with parallel
// ingestion, a sweep, and live analyzes — the shared-engine race
// coverage the ci -race run locks in. Correctness of the interleaving
// is asserted via every ingest applying exactly once and every job
// completing.
func TestConcurrentIngestSweepAndLive(t *testing.T) {
	srv := mustNew(t, Config{MaxJobs: 8})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.jobs.Shutdown()

	hot := funcState(t, streamState(t, ts.URL, "func=helper"), "helper").Paths[0]

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for agent := 0; agent < 3; agent++ {
		wg.Add(1)
		go func(agent int) {
			defer wg.Done()
			for seq := uint64(1); seq <= 5; seq++ {
				body := ingestBody(t, fmt.Sprintf("agent-%d", agent), false, []stream.FuncDelta{
					{Func: "helper", Seq: seq, Paths: []stream.PathDelta{{Path: hot.Path, Count: int64(seq)}}},
				})
				resp, data := postJSON(t, ts.URL+"/v1/profiles", body)
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("agent %d seq %d: status %d: %s", agent, seq, resp.StatusCode, data)
					return
				}
				var ir IngestResponse
				if err := json.Unmarshal(data, &ir); err != nil {
					errs <- err
					return
				}
				if ir.Applied != 1 {
					errs <- fmt.Errorf("agent %d seq %d: applied %d, want 1", agent, seq, ir.Applied)
					return
				}
			}
		}(agent)
	}
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, data := postJSON(t, ts.URL+"/v1/analyze?wait=1", liveAnalyzeBody(t))
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("live analyze: status %d: %s", resp.StatusCode, data)
				return
			}
			if job := decodeJob(t, data); job.State != JobDone {
				errs <- fmt.Errorf("live analyze job state %q: %+v", job.State, job.Error)
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		body, err := json.Marshal(SweepRequest{
			TargetSpec: TargetSpec{Source: testSrc, Args: []int64{120}},
			Points:     []OptionsSpec{{CA: 0.9, CR: 0.95}, {CA: 0.99, CR: 0.95}},
		})
		if err != nil {
			errs <- err
			return
		}
		resp, data := postJSON(t, ts.URL+"/v1/sweep?wait=1", body)
		if resp.StatusCode != http.StatusOK {
			errs <- fmt.Errorf("sweep: status %d: %s", resp.StatusCode, data)
			return
		}
		if job := decodeJob(t, data); job.State != JobDone {
			errs <- fmt.Errorf("sweep job state %q: %+v", job.State, job.Error)
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// 3 agents × 5 seqs, all applied exactly once: hot path grew by
	// 3 × (1+2+3+4+5).
	got := funcState(t, streamState(t, ts.URL, "func=helper"), "helper")
	if want := hot.Count + 3*15; got.Paths[0].Count != want {
		t.Fatalf("hot count after concurrent ingest = %d, want %d", got.Paths[0].Count, want)
	}
}
