package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"pathflow/internal/engine"
)

// testSrc is a small multi-function program whose main and helper
// qualify under the default knobs (same shape as the engine's fixture):
// a biased branch in helper makes s=4 a hot-path constant.
const testSrc = `
func helper(k) {
	m = input() % 10;
	if (m < 9) { s = 4; } else { s = input() % 16; }
	return k * s + s / 2;
}
func cold(k) {
	return k * 31 % 17;
}
func main() {
	n = arg(0);
	i = 0;
	t = 0;
	while (i < n) {
		t = t + helper(i);
		i = i + 1;
	}
	if (arg(5) == 99) { t = t + cold(t); }
	print(t);
}
`

func analyzeBody(t *testing.T) []byte {
	t.Helper()
	b, err := json.Marshal(AnalyzeRequest{
		TargetSpec: TargetSpec{Source: testSrc, Args: []int64{120}},
		Options:    &OptionsSpec{CA: 0.97, CR: 0.95},
	})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func postJSON(t *testing.T, url string, body []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

func getBody(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

func decodeJob(t *testing.T, data []byte) JobJSON {
	t.Helper()
	var j JobJSON
	if err := json.Unmarshal(data, &j); err != nil {
		t.Fatalf("decoding job JSON: %v\n%s", err, data)
	}
	return j
}

// mustNew builds a server, failing the test on a cache-open error.
func mustNew(t *testing.T, cfg Config) *Server {
	t.Helper()
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// --- Round trip -----------------------------------------------------------

func TestAnalyzeRoundTrip(t *testing.T) {
	srv := mustNew(t, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.jobs.Shutdown()

	resp, data := postJSON(t, ts.URL+"/v1/analyze?wait=1", analyzeBody(t))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, data)
	}
	if resp.Header.Get("X-Request-ID") == "" {
		t.Error("missing X-Request-ID header")
	}
	job := decodeJob(t, data)
	if job.State != JobDone {
		t.Fatalf("job state = %q (error %+v)", job.State, job.Error)
	}
	if job.Result == nil || job.Metrics == nil {
		t.Fatal("done job missing result or metrics")
	}
	if len(job.Result.Functions) != 3 {
		t.Fatalf("got %d functions, want 3", len(job.Result.Functions))
	}
	byName := map[string]FuncSummary{}
	for _, f := range job.Result.Functions {
		byName[f.Name] = f
	}
	if !byName["main"].Qualified || !byName["helper"].Qualified {
		t.Errorf("main/helper should qualify: %+v", job.Result.Functions)
	}
	if byName["helper"].HPGNodes <= byName["helper"].Nodes {
		t.Errorf("helper HPG did not grow: %+v", byName["helper"])
	}
	if len(byName["helper"].Consts) == 0 {
		t.Error("helper should expose hot-path constants")
	}
	if job.Metrics.StageRuns == 0 || job.Metrics.WallMS <= 0 {
		t.Errorf("metrics not populated: %+v", job.Metrics)
	}

	// The async flavor: 202 + pollable job.
	resp, data = postJSON(t, ts.URL+"/v1/analyze", analyzeBody(t))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("async status = %d, body %s", resp.StatusCode, data)
	}
	var ref JobRef
	if err := json.Unmarshal(data, &ref); err != nil {
		t.Fatal(err)
	}
	j := srv.jobs.Get(ref.JobID)
	if j == nil {
		t.Fatalf("job %q not registered", ref.JobID)
	}
	select {
	case <-j.Done():
	case <-time.After(30 * time.Second):
		t.Fatal("job did not finish")
	}
	_, data = getBody(t, ts.URL+ref.StatusURL)
	if got := decodeJob(t, data); got.State != JobDone {
		t.Fatalf("polled state = %q", got.State)
	}
}

// TestClientsAndVerifyOverHTTP exercises the OptionsSpec extensions:
// extra data-flow clients and the precision differential oracle are
// selectable per request, their stages show up in the job metrics, and
// an unknown client name maps to a 400 with the CLI's hint text.
func TestClientsAndVerifyOverHTTP(t *testing.T) {
	srv := mustNew(t, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.jobs.Shutdown()

	body, err := json.Marshal(AnalyzeRequest{
		TargetSpec: TargetSpec{Source: testSrc, Args: []int64{120}},
		Options:    &OptionsSpec{CA: 0.97, CR: 0.95, Clients: "all", Verify: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	resp, data := postJSON(t, ts.URL+"/v1/analyze?wait=1", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, data)
	}
	job := decodeJob(t, data)
	if job.State != JobDone {
		t.Fatalf("job state = %q (error %+v)", job.State, job.Error)
	}
	if got := job.Result.Options; got.Clients != "liveness,availexpr" || !got.Verify {
		t.Errorf("result options = %+v; clients/verify not round-tripped", got)
	}
	for _, stage := range []string{"liveness", "availexpr", "check"} {
		st, ok := job.Metrics.Stages[stage]
		if !ok || st.Runs == 0 {
			t.Errorf("stage %q missing from job metrics: %+v", stage, job.Metrics.Stages)
		}
	}

	// Unknown client → 400 carrying engine.UnknownClientError's hint.
	resp, data = postJSON(t, ts.URL+"/v1/analyze",
		[]byte(`{"program": "compress", "options": {"ca": 0.97, "cr": 0.95, "clients": "bogus"}}`))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad client status = %d, body %s", resp.StatusCode, data)
	}
	var eb ErrorBody
	if err := json.Unmarshal(data, &eb); err != nil {
		t.Fatalf("error body not JSON: %v\n%s", err, data)
	}
	wantHint := (&engine.UnknownClientError{Name: "bogus"}).Hint()
	if eb.Hint != wantHint {
		t.Errorf("hint = %q, want the CLI's %q", eb.Hint, wantHint)
	}

	// Unknown kernel → 400 carrying engine.UnknownKernelError's hint,
	// verbatim the line the CLI prints. "sparse" names a retired backend.
	wantHint = (&engine.UnknownKernelError{Name: "dense"}).Hint()
	if wantHint != "valid kernels: packed (default), boxed" {
		t.Errorf("kernel hint = %q, want the two-backend list", wantHint)
	}
	for _, kernel := range []string{"dense", "sparse"} {
		resp, data = postJSON(t, ts.URL+"/v1/analyze",
			[]byte(`{"program": "compress", "options": {"ca": 0.97, "cr": 0.95, "kernel": "`+kernel+`"}}`))
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("kernel %q status = %d, body %s", kernel, resp.StatusCode, data)
		}
		eb = ErrorBody{}
		if err := json.Unmarshal(data, &eb); err != nil {
			t.Fatalf("error body not JSON: %v\n%s", err, data)
		}
		if eb.Hint != wantHint {
			t.Errorf("kernel %q hint = %q, want the CLI's %q", kernel, eb.Hint, wantHint)
		}
	}
}

// --- Satellite: concurrent requests share the cache, byte-identically ----

func TestConcurrentRequestsByteIdenticalAndCacheShared(t *testing.T) {
	body := analyzeBody(t)

	// Reference server: one request, record how much unique work (cache
	// misses) a solo run performs.
	ref := mustNew(t, Config{})
	tsRef := httptest.NewServer(ref.Handler())
	resp, data := postJSON(t, tsRef.URL+"/v1/analyze?wait=1", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ref status = %d: %s", resp.StatusCode, data)
	}
	refJob := decodeJob(t, data)
	soloMisses := ref.Engine().CacheStats().Misses
	tsRef.Close()
	ref.jobs.Shutdown()
	if soloMisses == 0 {
		t.Fatal("solo run recorded no cache misses; fixture too small")
	}

	// Test server: two overlapping identical requests.
	srv := mustNew(t, Config{MaxJobs: 4})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.jobs.Shutdown()

	var wg sync.WaitGroup
	results := make([][]byte, 2)
	metrics := make([]*JobMetrics, 2)
	errs := make([]error, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// No t.* calls in here — collect errors for the main goroutine.
			resp, err := http.Post(ts.URL+"/v1/analyze?wait=1", "application/json", bytes.NewReader(body))
			if err != nil {
				errs[i] = err
				return
			}
			defer resp.Body.Close()
			var buf bytes.Buffer
			if _, err := buf.ReadFrom(resp.Body); err != nil {
				errs[i] = err
				return
			}
			if resp.StatusCode != http.StatusOK {
				errs[i] = fmt.Errorf("status %d: %s", resp.StatusCode, buf.Bytes())
				return
			}
			var job JobJSON
			if err := json.Unmarshal(buf.Bytes(), &job); err != nil {
				errs[i] = err
				return
			}
			if job.State != JobDone {
				errs[i] = fmt.Errorf("state %q: %+v", job.State, job.Error)
				return
			}
			res, err := json.Marshal(job.Result)
			if err != nil {
				errs[i] = err
				return
			}
			results[i] = res
			metrics[i] = job.Metrics
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}

	// Byte-identical results, and identical to the solo run's.
	if !bytes.Equal(results[0], results[1]) {
		t.Errorf("overlapping identical requests returned different results:\n%s\n---\n%s",
			results[0], results[1])
	}
	refBytes, err := json.Marshal(refJob.Result)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(results[0], refBytes) {
		t.Errorf("result differs from solo run:\n%s\n---\n%s", results[0], refBytes)
	}

	// Single-flight: two overlapping jobs perform exactly one job's worth
	// of unique work — the same miss count as the solo server.
	st := srv.Engine().CacheStats()
	if st.Misses != soloMisses {
		t.Errorf("overlapping pair misses = %d, want %d (single-flight should not double work)",
			st.Misses, soloMisses)
	}
	if st.Hits == 0 {
		t.Error("overlapping pair recorded no cache hits")
	}
	if metrics[0].StageCacheHits+metrics[1].StageCacheHits == 0 {
		t.Errorf("neither job observed cache sharing: %+v / %+v", metrics[0], metrics[1])
	}

	// A repeat request replays entirely from cache: no new misses, every
	// stage a hit, the training profile served from the memo.
	resp, data = postJSON(t, ts.URL+"/v1/analyze?wait=1", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("repeat status = %d: %s", resp.StatusCode, data)
	}
	rep := decodeJob(t, data)
	if got := srv.Engine().CacheStats().Misses; got != soloMisses {
		t.Errorf("repeat request added misses: %d -> %d", soloMisses, got)
	}
	if rep.Metrics.StageCacheHits != rep.Metrics.StageRuns {
		t.Errorf("repeat request not fully cached: %d/%d stages hit",
			rep.Metrics.StageCacheHits, rep.Metrics.StageRuns)
	}
	if !rep.Metrics.ProfileCached {
		t.Error("repeat request re-ran the training profile")
	}
	if got, err := json.Marshal(rep.Result); err != nil || !bytes.Equal(got, refBytes) {
		t.Errorf("cached result differs from computed result (err=%v)", err)
	}
}

// --- Satellite: graceful shutdown ----------------------------------------

func TestGracefulShutdownCancelsInFlight(t *testing.T) {
	srv := mustNew(t, Config{MaxJobs: 1})
	started := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	srv.hookStage = func(engine.StageEvent) {
		once.Do(func() { close(started) })
		<-release
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Job 1 runs (and blocks mid-stage on the hook); job 2 stays queued
	// behind MaxJobs=1.
	resp, data := postJSON(t, ts.URL+"/v1/analyze", analyzeBody(t))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit 1: %d %s", resp.StatusCode, data)
	}
	var ref1 JobRef
	if err := json.Unmarshal(data, &ref1); err != nil {
		t.Fatal(err)
	}
	select {
	case <-started:
	case <-time.After(30 * time.Second):
		t.Fatal("job 1 never reached a pipeline stage")
	}
	_, data = postJSON(t, ts.URL+"/v1/analyze", analyzeBody(t))
	var ref2 JobRef
	if err := json.Unmarshal(data, &ref2); err != nil {
		t.Fatal(err)
	}

	// Initiate the drain: cancel every job context, then unblock the
	// stage observer so job 1 can observe its dead context.
	srv.jobs.stop()
	close(release)
	done := make(chan struct{})
	go func() { srv.jobs.Shutdown(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("Shutdown did not drain")
	}

	job1, job2 := srv.jobs.Get(ref1.JobID), srv.jobs.Get(ref2.JobID)
	if job1.State() != JobCanceled {
		t.Fatalf("in-flight job state = %q, err = %v", job1.State(), job1.Err())
	}
	// The in-flight job must carry engine provenance: a StageError whose
	// cause is context.Canceled.
	if !engineCanceled(job1.Err()) {
		t.Errorf("in-flight job error lacks StageError/context.Canceled provenance: %v", job1.Err())
	}
	var se *engine.StageError
	if errors.As(job1.Err(), &se) && (se.Stage == "" || se.Func == "") {
		t.Errorf("StageError missing provenance: %+v", se)
	}
	if job2.State() != JobCanceled || !errors.Is(job2.Err(), context.Canceled) {
		t.Errorf("queued job: state %q err %v, want canceled", job2.State(), job2.Err())
	}

	// The job's event stream is sealed with a terminal event.
	evs, _, closed := job1.events.since(0)
	if !closed {
		t.Error("event log not sealed after shutdown")
	}
	if len(evs) == 0 || evs[len(evs)-1].Type != "end" || evs[len(evs)-1].State != JobCanceled {
		t.Errorf("missing terminal cancel event: %+v", evs)
	}

	// The shared cache survives the drain: failed computations are
	// evicted, so the engine still produces correct results.
	srv.hookStage = nil
	rt, err := resolveTarget(&TargetSpec{Source: testSrc, Args: []int64{120}})
	if err != nil {
		t.Fatal(err)
	}
	train, _, _, err := srv.memo.trainProfile(rt)
	if err != nil {
		t.Fatal(err)
	}
	res, err := srv.Engine().AnalyzeProgram(context.Background(), rt.prog, train, engine.DefaultOptions())
	if err != nil {
		t.Fatalf("engine unusable after drained shutdown: %v", err)
	}
	if !res.Funcs["main"].Qualified() {
		t.Error("post-shutdown analysis lost qualification")
	}
}

func TestServeDrainsOnContextCancel(t *testing.T) {
	srv := mustNew(t, Config{})
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	listening := make(chan net.Addr, 1)
	go func() {
		errc <- srv.ListenAndServe(ctx, "127.0.0.1:0", func(a net.Addr) { listening <- a })
	}()
	var base string
	select {
	case a := <-listening:
		base = "http://" + a.String()
	case <-time.After(30 * time.Second):
		t.Fatal("server never listened")
	}
	if resp, _ := getBody(t, base+"/healthz"); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz over real listener = %d", resp.StatusCode)
	}
	cancel()
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("Serve returned %v after graceful drain", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Serve did not return after ctx cancel")
	}
}

// --- Satellite: structured error mapping ---------------------------------

func TestErrorMapping(t *testing.T) {
	srv := mustNew(t, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.jobs.Shutdown()

	post := func(body string) (*http.Response, ErrorBody) {
		t.Helper()
		resp, data := postJSON(t, ts.URL+"/v1/analyze", []byte(body))
		var eb ErrorBody
		if err := json.Unmarshal(data, &eb); err != nil {
			t.Fatalf("error body not JSON: %v\n%s", err, data)
		}
		return resp, eb
	}

	// Unknown benchmark name → 404 with the suite-listing hint.
	resp, eb := post(`{"program": "nosuch"}`)
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown program status = %d", resp.StatusCode)
	}
	if !strings.Contains(eb.Error, "unknown benchmark") || !strings.Contains(eb.Hint, "known benchmarks:") {
		t.Errorf("unhelpful 404 body: %+v", eb)
	}
	if eb.RequestID == "" {
		t.Error("error body missing request_id")
	}

	// Invalid options → 400 with exactly the hint text the CLI prints.
	resp, eb = post(`{"program": "compress", "options": {"ca": 1.5, "cr": 0.95}}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad CA status = %d", resp.StatusCode)
	}
	wantHint := (&engine.InvalidOptionsError{Field: "CA", Value: 1.5}).Hint()
	if eb.Hint != wantHint {
		t.Errorf("hint = %q, want the CLI's %q", eb.Hint, wantHint)
	}

	// Mutually exclusive / missing target, malformed JSON, unknown
	// fields, uncompilable source → 400.
	for _, body := range []string{
		`{"program": "compress", "source": "func main() {}"}`,
		`{}`,
		`{not json`,
		`{"program": "compress", "typo_field": 1}`,
		`{"source": "func main( {"}`,
	} {
		if resp, _ := post(body); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %q: status = %d, want 400", body, resp.StatusCode)
		}
	}

	// Sweep with no points → 400.
	resp, data := postJSON(t, ts.URL+"/v1/sweep", []byte(`{"program": "compress", "points": []}`))
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty sweep status = %d: %s", resp.StatusCode, data)
	}

	// Unknown job → 404.
	if resp, _ := getBody(t, ts.URL+"/v1/jobs/job-999"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job status = %d", resp.StatusCode)
	}
}

// TestOversizedBodies: every endpoint that decodes a JSON body stops
// reading at maxBodyBytes and answers 413 with a hint, before any
// program is compiled or profile applied.
func TestOversizedBodies(t *testing.T) {
	srv := mustNew(t, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.jobs.Shutdown()

	pad := strings.Repeat("x", maxBodyBytes)
	wantHint := (&BodyTooLargeError{Limit: maxBodyBytes}).Hint()
	for _, tc := range []struct {
		path, body string
	}{
		{"/v1/analyze", `{"source": "` + pad + `"}`},
		{"/v1/sweep", `{"program": "compress", "points": [], "source": "` + pad + `"}`},
		{"/v1/profiles", `{"program": "compress", "agent": "` + pad + `"}`},
	} {
		resp, data := postJSON(t, ts.URL+tc.path, []byte(tc.body))
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("%s: status = %d, want 413; body %.200s", tc.path, resp.StatusCode, data)
			continue
		}
		var eb ErrorBody
		if err := json.Unmarshal(data, &eb); err != nil {
			t.Fatalf("%s: error body not JSON: %v\n%s", tc.path, err, data)
		}
		if eb.Hint != wantHint || eb.RequestID == "" {
			t.Errorf("%s: error body %+v, want hint %q and a request id", tc.path, eb, wantHint)
		}
	}
}

// TestSweepRejectsDistributedFields: sweeps once accepted
// "distributed" and "baseline_source" for sharding across worker
// processes. The daemon now runs every sweep in process, and the strict
// decoder refuses both as unknown fields.
func TestSweepRejectsDistributedFields(t *testing.T) {
	srv := mustNew(t, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.jobs.Shutdown()

	for field, body := range map[string]string{
		"distributed":     `{"program": "compress", "points": [{"ca": 0.97, "cr": 0.95}], "distributed": true}`,
		"baseline_source": `{"program": "compress", "points": [{"ca": 0.97, "cr": 0.95}], "baseline_source": "func main() {}"}`,
	} {
		resp, data := postJSON(t, ts.URL+"/v1/sweep", []byte(body))
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400; body %s", field, resp.StatusCode, data)
			continue
		}
		var eb ErrorBody
		if err := json.Unmarshal(data, &eb); err != nil {
			t.Fatalf("%s: error body not JSON: %v\n%s", field, err, data)
		}
		if want := `unknown field "` + field + `"`; !strings.Contains(eb.Error, want) {
			t.Errorf("%s: error %q does not name the unknown field", field, eb.Error)
		}
	}
}

// TestInputLenBound: an inline target's input_len above maxInputLen is
// refused with 422 and a hint on every endpoint that resolves a target,
// before the daemon allocates the input stream.
func TestInputLenBound(t *testing.T) {
	srv := mustNew(t, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.jobs.Shutdown()

	src, err := json.Marshal(testSrc)
	if err != nil {
		t.Fatal(err)
	}
	target := fmt.Sprintf(`"source": %s, "args": [120], "input_len": %d`, src, maxInputLen+1)
	wantHint := (&InputLenError{Len: maxInputLen + 1, Limit: maxInputLen}).Hint()
	for _, tc := range []struct {
		name string
		do   func() (*http.Response, []byte)
	}{
		{"/v1/analyze", func() (*http.Response, []byte) {
			return postJSON(t, ts.URL+"/v1/analyze", []byte(`{`+target+`}`))
		}},
		{"/v1/sweep", func() (*http.Response, []byte) {
			return postJSON(t, ts.URL+"/v1/sweep", []byte(`{`+target+`, "points": [{"ca": 0.97, "cr": 0.95}]}`))
		}},
		{"GET /v1/profiles", func() (*http.Response, []byte) {
			return getBody(t, ts.URL+streamQuery(fmt.Sprintf("input_len=%d", maxInputLen+1)))
		}},
	} {
		resp, data := tc.do()
		if resp.StatusCode != http.StatusUnprocessableEntity {
			t.Errorf("%s: status = %d, want 422; body %s", tc.name, resp.StatusCode, data)
			continue
		}
		var eb ErrorBody
		if err := json.Unmarshal(data, &eb); err != nil {
			t.Fatalf("%s: error body not JSON: %v\n%s", tc.name, err, data)
		}
		if eb.Hint != wantHint || eb.RequestID == "" {
			t.Errorf("%s: error body %+v, want hint %q and a request id", tc.name, eb, wantHint)
		}
	}

	// The limit itself is accepted.
	resp, data := postJSON(t, ts.URL+"/v1/analyze?wait=1",
		[]byte(fmt.Sprintf(`{"source": %s, "args": [120], "input_len": %d}`, src, maxInputLen)))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("input_len at the limit: status = %d: %s", resp.StatusCode, data)
	}
	if job := decodeJob(t, data); job.State != JobDone {
		t.Fatalf("input_len at the limit: job state = %q (%+v)", job.State, job.Error)
	}
}

// --- Sweep + events stream ------------------------------------------------

func TestSweepAndEventStream(t *testing.T) {
	srv := mustNew(t, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.jobs.Shutdown()

	body, err := json.Marshal(SweepRequest{
		TargetSpec: TargetSpec{Source: testSrc, Args: []int64{120}},
		Points:     []OptionsSpec{{CA: 0, CR: 0.95}, {CA: 0.97, CR: 0.95}},
	})
	if err != nil {
		t.Fatal(err)
	}
	resp, data := postJSON(t, ts.URL+"/v1/sweep?wait=1", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep status = %d: %s", resp.StatusCode, data)
	}
	job := decodeJob(t, data)
	if job.State != JobDone || len(job.Results) != 2 {
		t.Fatalf("sweep state %q, %d results", job.State, len(job.Results))
	}
	funcOf := func(r *AnalyzeResult, name string) FuncSummary {
		for _, f := range r.Functions {
			if f.Name == name {
				return f
			}
		}
		t.Fatalf("no function %q", name)
		return FuncSummary{}
	}
	if funcOf(job.Results[0], "main").Qualified {
		t.Error("CA=0 point must not qualify")
	}
	if !funcOf(job.Results[1], "main").Qualified {
		t.Error("CA=0.97 point must qualify")
	}

	// Replay the finished job's NDJSON event stream: lifecycle events,
	// the profile event, per-stage events tagged with their sweep point,
	// and the terminal event.
	resp, data = getBody(t, ts.URL+job.EventsURL)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("events content type = %q", ct)
	}
	var events []Event
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var ev Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		events = append(events, ev)
	}
	if len(events) < 4 {
		t.Fatalf("only %d events", len(events))
	}
	if events[0].Type != "state" || events[0].State != JobQueued {
		t.Errorf("first event = %+v, want queued", events[0])
	}
	if last := events[len(events)-1]; last.Type != "end" || last.State != JobDone {
		t.Errorf("last event = %+v, want end/done", last)
	}
	counts := map[string]int{}
	points := map[int]bool{}
	sawProfile := false
	for _, ev := range events {
		counts[ev.Type]++
		if ev.Type == "stage" {
			points[ev.Point] = true
			if ev.Stage == "" || ev.Func == "" {
				t.Errorf("stage event missing provenance: %+v", ev)
			}
		}
		if ev.Type == "profile" {
			sawProfile = true
		}
	}
	if counts["stage"] == 0 || !sawProfile {
		t.Errorf("stream missing stage/profile events: %v", counts)
	}
	if !points[0] || !points[1] {
		t.Errorf("stage events not tagged with both sweep points: %v", points)
	}

	// SSE flavor.
	req, err := http.NewRequest("GET", ts.URL+job.EventsURL, nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "text/event-stream")
	sresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	var sbuf bytes.Buffer
	if _, err := sbuf.ReadFrom(sresp.Body); err != nil {
		t.Fatal(err)
	}
	if ct := sresp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Errorf("SSE content type = %q", ct)
	}
	if !strings.Contains(sbuf.String(), "data: {") {
		t.Errorf("SSE stream has no data frames:\n%s", sbuf.String())
	}
}

// TestLiveEventStream subscribes before the job runs and sees events
// arrive while it is in flight (not just a post-hoc replay).
func TestLiveEventStream(t *testing.T) {
	srv := mustNew(t, Config{MaxJobs: 1, Workers: 1})
	gate := make(chan struct{})
	var once sync.Once
	srv.hookStage = func(engine.StageEvent) {
		once.Do(func() { <-gate })
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.jobs.Shutdown()

	_, data := postJSON(t, ts.URL+"/v1/analyze", analyzeBody(t))
	var ref JobRef
	if err := json.Unmarshal(data, &ref); err != nil {
		t.Fatal(err)
	}

	// Subscribe while the first stage is still blocked on the gate.
	resp, err := http.Get(ts.URL + ref.EventsURL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	lines := make(chan string)
	go func() {
		defer close(lines)
		for sc.Scan() {
			lines <- sc.Text()
		}
	}()

	// The queued/running events arrive before any stage completes.
	var got []string
	deadline := time.After(30 * time.Second)
	collect := func(n int) {
		for len(got) < n {
			select {
			case line, ok := <-lines:
				if !ok {
					t.Fatalf("stream ended early; got %v", got)
				}
				got = append(got, line)
			case <-deadline:
				t.Fatalf("timed out; got %v", got)
			}
		}
	}
	collect(2)
	if !strings.Contains(got[0], `"queued"`) || !strings.Contains(got[1], `"running"`) {
		t.Fatalf("lifecycle prefix wrong: %v", got)
	}
	close(gate) // let the pipeline proceed
	job := srv.jobs.Get(ref.JobID)
	select {
	case <-job.Done():
	case <-time.After(30 * time.Second):
		t.Fatal("job did not finish")
	}
	// Drain the remainder; the stream must terminate on its own.
	for line := range lines {
		got = append(got, line)
	}
	if !strings.Contains(got[len(got)-1], `"end"`) {
		t.Errorf("stream did not close with the terminal event: %v", got[len(got)-1])
	}
}

// --- Deadlines and cancellation ------------------------------------------

func TestJobDeadline(t *testing.T) {
	srv := mustNew(t, Config{MaxJobs: 1, Workers: 1})
	srv.hookStage = func(engine.StageEvent) { time.Sleep(5 * time.Millisecond) }
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.jobs.Shutdown()

	body, err := json.Marshal(AnalyzeRequest{
		TargetSpec: TargetSpec{Source: testSrc, Args: []int64{120}},
		TimeoutMS:  10,
	})
	if err != nil {
		t.Fatal(err)
	}
	resp, data := postJSON(t, ts.URL+"/v1/analyze?wait=1", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, data)
	}
	job := decodeJob(t, data)
	if job.State != JobFailed {
		t.Fatalf("state = %q, want failed (deadline)", job.State)
	}
	if job.Error == nil || !strings.Contains(job.Error.Hint, "deadline") {
		t.Errorf("deadline failure lacks hint: %+v", job.Error)
	}
	if !errors.Is(srv.jobs.Get(job.ID).Err(), context.DeadlineExceeded) {
		t.Errorf("stored error is not DeadlineExceeded: %v", srv.jobs.Get(job.ID).Err())
	}
}

func TestCancelEndpoint(t *testing.T) {
	srv := mustNew(t, Config{MaxJobs: 1})
	started := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	srv.hookStage = func(engine.StageEvent) {
		once.Do(func() { close(started) })
		<-release
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer func() { srv.jobs.Shutdown() }()
	defer func() { // release before Shutdown so the drain can finish
		select {
		case <-release:
		default:
			close(release)
		}
	}()

	_, data := postJSON(t, ts.URL+"/v1/analyze", analyzeBody(t))
	var ref1 JobRef
	if err := json.Unmarshal(data, &ref1); err != nil {
		t.Fatal(err)
	}
	<-started
	// A queued job (slot held by job 1) cancels instantly.
	_, data = postJSON(t, ts.URL+"/v1/analyze", analyzeBody(t))
	var ref2 JobRef
	if err := json.Unmarshal(data, &ref2); err != nil {
		t.Fatal(err)
	}
	resp, _ := postJSON(t, ts.URL+"/v1/jobs/"+ref2.JobID+"/cancel", nil)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel status = %d", resp.StatusCode)
	}
	job2 := srv.jobs.Get(ref2.JobID)
	select {
	case <-job2.Done():
	case <-time.After(30 * time.Second):
		t.Fatal("queued job did not cancel")
	}
	if job2.State() != JobCanceled {
		t.Errorf("state = %q, want canceled", job2.State())
	}
	close(release)
	job1 := srv.jobs.Get(ref1.JobID)
	select {
	case <-job1.Done():
	case <-time.After(30 * time.Second):
		t.Fatal("job 1 did not finish")
	}
	if job1.State() != JobDone {
		t.Errorf("job 1 state = %q, err %v", job1.State(), job1.Err())
	}
}

// --- Operational endpoints ------------------------------------------------

func TestHealthzAndMetrics(t *testing.T) {
	srv := mustNew(t, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.jobs.Shutdown()

	// Run one job so counters are non-trivial.
	if resp, data := postJSON(t, ts.URL+"/v1/analyze?wait=1", analyzeBody(t)); resp.StatusCode != http.StatusOK {
		t.Fatalf("analyze: %d %s", resp.StatusCode, data)
	}

	resp, data := getBody(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status = %d", resp.StatusCode)
	}
	var h Health
	if err := json.Unmarshal(data, &h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.JobsAccepted != 1 || h.JobsInFlight != 0 {
		t.Errorf("health = %+v", h)
	}
	if h.EngineCache.Misses == 0 {
		t.Errorf("health cache stats empty: %+v", h.EngineCache)
	}

	resp, data = getBody(t, ts.URL+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status = %d", resp.StatusCode)
	}
	text := string(data)
	for _, want := range []string{
		"pathflow_jobs_finished_total{state=\"done\"} 1",
		"pathflow_jobs_in_flight 0",
		"pathflow_engine_cache_misses_total",
		"pathflow_stage_seconds_bucket{stage=\"baseline\",le=\"+Inf\"}",
		"pathflow_stage_seconds_count{stage=\"trace\"}",
		"pathflow_profile_runs_total 1",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics output missing %q\n%s", want, text)
		}
	}

	resp, data = getBody(t, ts.URL+"/v1/programs")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("programs status = %d", resp.StatusCode)
	}
	var progs []ProgramInfo
	if err := json.Unmarshal(data, &progs); err != nil {
		t.Fatal(err)
	}
	if len(progs) != 7 {
		t.Errorf("got %d programs, want the 7-benchmark suite", len(progs))
	}

	resp, data = getBody(t, ts.URL+"/v1/jobs")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("jobs status = %d", resp.StatusCode)
	}
	var jobs []JobJSON
	if err := json.Unmarshal(data, &jobs); err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 1 || jobs[0].Result != nil {
		t.Errorf("job listing should summarize without results: %+v", jobs)
	}
}

// --- Satellite: persistent cache across server restarts -------------------

// TestRestartWarmStartsFromDisk models a daemon restart: a second server
// on the same CacheDir must answer a repeat request from the persistent
// tier, observable in job metrics, event provenance, /healthz, and
// /metrics — with a byte-identical result.
func TestRestartWarmStartsFromDisk(t *testing.T) {
	dir := t.TempDir()
	body := analyzeBody(t)

	run := func(srv *Server) (JobJSON, string) {
		t.Helper()
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		defer srv.jobs.Shutdown()
		resp, data := postJSON(t, ts.URL+"/v1/analyze?wait=1", body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("analyze: %d %s", resp.StatusCode, data)
		}
		job := decodeJob(t, data)
		if job.State != JobDone {
			t.Fatalf("job state = %q (%+v)", job.State, job.Error)
		}
		_, mdata := getBody(t, ts.URL+"/metrics")
		return job, string(mdata)
	}

	// First process: computes everything, writes through to disk.
	jobA, metricsA := run(mustNew(t, Config{CacheDir: dir}))
	if !strings.Contains(metricsA, "pathflow_diskcache_writes_total") {
		t.Fatalf("disk tier not exported in /metrics:\n%s", metricsA)
	}
	if jobA.Metrics.StageDiskHits != 0 {
		t.Errorf("cold server claims disk hits: %+v", jobA.Metrics)
	}

	// Second process, same directory: the repeat request revives every
	// persisted stage from disk instead of recomputing. The memory-only
	// stages are computed on every run and every other stage is a cache
	// hit.
	srvB := mustNew(t, Config{CacheDir: dir})
	jobB, metricsB := run(srvB)
	if jobB.Metrics.StageDiskHits == 0 {
		t.Fatalf("restarted server recomputed instead of reading disk: %+v", jobB.Metrics)
	}
	computed := map[engine.StageName]bool{
		engine.StageBaseline: true, engine.StageSelect: true,
		engine.StageTrace: true, engine.StageTranslate: true,
	}
	for name, sm := range jobB.Metrics.Stages {
		switch {
		case computed[engine.StageName(name)] && sm.CacheHits != 0:
			t.Errorf("restart: %d of %d %s runs hit the cache, want all computed", sm.CacheHits, sm.Runs, name)
		case !computed[engine.StageName(name)] && sm.CacheHits != sm.Runs:
			t.Errorf("restart: %d of %d %s runs hit the cache, want all", sm.CacheHits, sm.Runs, name)
		}
	}
	for s := range computed {
		if jobB.Metrics.Stages[string(s)].Runs == 0 {
			t.Errorf("restart: stage %s never ran", s)
		}
	}
	st := srvB.Engine().CacheStats()
	if !st.DiskEnabled || st.Disk.Hits == 0 {
		t.Errorf("engine disk stats show no hits: %+v", st)
	}
	for _, want := range []string{
		"pathflow_diskcache_hits_total",
		"pathflow_diskcache_entries",
		"pathflow_diskcache_decode_seconds_bucket",
		`pathflow_stage_disk_hits_total{stage="analyze"}`,
	} {
		if !strings.Contains(metricsB, want) {
			t.Errorf("restart /metrics missing %q", want)
		}
	}
	if strings.Contains(metricsB, "pathflow_diskcache_hits_total 0\n") {
		t.Error("restart /metrics reports zero disk hits")
	}

	// Stage events carry disk provenance.
	job := srvB.jobs.Get(jobB.ID)
	evs, _, _ := job.events.since(0)
	sawDisk := false
	for _, ev := range evs {
		if ev.Type == "stage" && ev.Source == "disk" {
			sawDisk = true
		}
	}
	if !sawDisk {
		t.Error("no stage event tagged with disk provenance")
	}

	// And the answers agree byte for byte.
	a, err := json.Marshal(jobA.Result)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(jobB.Result)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Errorf("restarted server returned a different result:\n%s\n---\n%s", a, b)
	}
}

func TestJobResultEndpointStates(t *testing.T) {
	srv := mustNew(t, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.jobs.Shutdown()

	resp, _ := getBody(t, ts.URL+"/v1/jobs/job-999/result")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("result of unknown job = %d, want 404", resp.StatusCode)
	}

	// An analyze job's result endpoint returns the bare AnalyzeResult.
	resp, data := postJSON(t, ts.URL+"/v1/analyze?wait=1", analyzeBody(t))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("analyze = %d: %s", resp.StatusCode, data)
	}
	job := decodeJob(t, data)
	resp, rdata := getBody(t, fmt.Sprintf("%s/v1/jobs/%s/result", ts.URL, job.ID))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result = %d: %s", resp.StatusCode, rdata)
	}
	var ar AnalyzeResult
	if err := json.Unmarshal(rdata, &ar); err != nil {
		t.Fatalf("result payload is not an AnalyzeResult: %v\n%s", err, rdata)
	}
	if ar.Program == "" || len(ar.Functions) == 0 {
		t.Fatalf("result payload empty: %s", rdata)
	}
}

// TestMetricsHistogramBuckets pins the bucket lines of both /metrics
// histograms — stage compute time and disk decode time — which share
// one list of bounds.
func TestMetricsHistogramBuckets(t *testing.T) {
	sm := newServerMetrics()
	sm.observeStage(engine.StageEvent{Stage: engine.StageTrace, Duration: 3 * time.Millisecond})
	cache := engine.CacheStats{DiskEnabled: true}
	cache.Disk.DecodeCount = 2
	cache.Disk.DecodeBuckets = [8]int64{0, 0, 1, 2, 2, 2, 2, 2}
	var b strings.Builder
	sm.render(&b, cache)
	var got []string
	for _, line := range strings.Split(b.String(), "\n") {
		if strings.Contains(line, "_bucket{") {
			got = append(got, line)
		}
	}
	want := []string{
		`pathflow_diskcache_decode_seconds_bucket{le="1e-06"} 0`,
		`pathflow_diskcache_decode_seconds_bucket{le="1e-05"} 0`,
		`pathflow_diskcache_decode_seconds_bucket{le="0.0001"} 1`,
		`pathflow_diskcache_decode_seconds_bucket{le="0.001"} 2`,
		`pathflow_diskcache_decode_seconds_bucket{le="0.01"} 2`,
		`pathflow_diskcache_decode_seconds_bucket{le="0.1"} 2`,
		`pathflow_diskcache_decode_seconds_bucket{le="1"} 2`,
		`pathflow_diskcache_decode_seconds_bucket{le="10"} 2`,
		`pathflow_diskcache_decode_seconds_bucket{le="+Inf"} 2`,
		`pathflow_stage_seconds_bucket{stage="trace",le="1e-06"} 0`,
		`pathflow_stage_seconds_bucket{stage="trace",le="1e-05"} 0`,
		`pathflow_stage_seconds_bucket{stage="trace",le="0.0001"} 0`,
		`pathflow_stage_seconds_bucket{stage="trace",le="0.001"} 0`,
		`pathflow_stage_seconds_bucket{stage="trace",le="0.01"} 1`,
		`pathflow_stage_seconds_bucket{stage="trace",le="0.1"} 1`,
		`pathflow_stage_seconds_bucket{stage="trace",le="1"} 1`,
		`pathflow_stage_seconds_bucket{stage="trace",le="10"} 1`,
		`pathflow_stage_seconds_bucket{stage="trace",le="+Inf"} 1`,
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("bucket lines:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}
