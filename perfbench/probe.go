package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"pathflow/internal/bl"
	"pathflow/internal/cfg"
	"pathflow/internal/constprop"
	"pathflow/internal/dataflow/kernel"
	"pathflow/internal/engine"
	"pathflow/internal/feasible"
	"pathflow/internal/lang"
	"pathflow/internal/profile/stream"
	"pathflow/internal/serve"
	"pathflow/internal/trace"
)

// probeMax bounds how many of a workload's programs the probe visits.
const probeMax = 8

// Probe is the traced run's direct layer measurement: after the loop it
// calls each layer's public entry point on the workload's first
// programs, one call at a time, timing each call and the bytes it
// allocates. Every workload runs the same probe on its own programs, so
// every per-layer metric is measured on every workload.
type Probe struct {
	m     map[string]Metric
	alloc map[string]uint64
	tr    *Tracer
	root  int
	// t counts the probe's daemon requests and checks; a refused call or
	// a failed check is a failed operation.
	t tally
}

func (p *Probe) add(name string, v float64, unit string) {
	m := p.m[name]
	m.Value += v
	m.Unit = unit
	p.m[name] = m
}

// time runs f as a span named layer+"."+op, adding its wall time to
// metric and its allocation to the layer's alloc_mb.
func (p *Probe) time(layer, metric string, f func()) time.Duration {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	f()
	d := time.Since(t0)
	runtime.ReadMemStats(&after)
	p.tr.Add(layer+"."+metric, p.root, t0, t0.Add(d))
	p.add(layer+"."+metric, float64(d)/1e6, "ms")
	p.alloc[layer] += after.TotalAlloc - before.TotalAlloc
	return d
}

// fail records a probe call the program refused.
func (p *Probe) fail(msg string) {
	p.t.attempted++
	p.t.fail(msg)
}

func runProbe(env *Env, ins []*Input, tr *Tracer) *Probe {
	p := &Probe{m: map[string]Metric{}, alloc: map[string]uint64{}, tr: tr}
	p.root = tr.Begin("bench.probe", -1)
	defer tr.End(p.root)
	if len(ins) > probeMax {
		ins = ins[:probeMax]
	}
	var loaded []*Input
	for _, in := range ins {
		if c := p.program(env, in); c != nil {
			loaded = append(loaded, c)
		}
	}
	p.diskcache(env, loaded)
	p.serve(env, loaded)
	for layer, b := range p.alloc {
		p.add(layer+".alloc_mb", float64(b)/(1<<20), "MB")
	}
	return p
}

// program probes the front end, training, the full-option pipeline, the
// oracle, the constprop kernel, feasible detection and HPG assembly on
// one program, and returns the program compiled and trained.
func (p *Probe) program(env *Env, in *Input) *Input {
	c := *in
	var err error
	p.time("lang", "busy_ms", func() { c.Prog, err = lang.Compile(c.Src) })
	if err != nil {
		p.fail(in.Name + ": compile: " + err.Error())
		return nil
	}
	for _, f := range c.Prog.Funcs {
		p.add("lang.nodes", float64(f.G.NumNodes()), "count")
	}
	p.time("bl", "busy_ms", func() { c.Train, _, err = bl.ProfileProgram(c.Prog, c.trainOptions()) })
	if err != nil {
		p.fail(in.Name + ": train: " + err.Error())
		return nil
	}
	p.add("bl.paths", float64(c.Train.TotalPaths()), "count")

	// The recommended point with every client: the oracle then checks
	// all four clients on every tier. Detection is probed directly below.
	o := engine.DefaultOptions()
	o.Clients = engine.ClientsAll
	eng := engine.New(engine.Config{Workers: env.workers, Cache: true})
	agg := newStageAgg()
	ctx := engine.WithStageObserver(context.Background(), agg.observer(p.tr, p.root))
	res, err := eng.AnalyzeProgram(ctx, c.Prog, c.Train, o)
	if err != nil {
		p.fail(in.Name + ": analyze: " + err.Error())
		return nil
	}
	p.add("liveness.busy_ms", agg.busyMS[engine.StageLiveness], "ms")
	p.add("availexpr.busy_ms", agg.busyMS[engine.StageAvailExpr], "ms")

	for _, name := range c.Prog.Order {
		fr := res.Funcs[name]
		nv := fr.Fn.NumVars()
		p.time("check", "busy_ms", func() { err = engine.OracleErr(engine.CheckFuncResult(fr)) })
		if err != nil {
			p.fail(fmt.Sprintf("%s/%s: oracle: %v", in.Name, name, err))
		}
		p.kernel(fr.Fn.G, nv)
		p.detect("detect_cfg_ms", fr.Fn.G, nv)
		if !fr.Qualified() {
			continue
		}
		p.add("trace.hpg_nodes", float64(fr.HPG.G.NumNodes()), "count")
		p.add("reduce.rhpg_nodes", float64(fr.Red.G.NumNodes()), "count")
		p.add("automaton.states", float64(fr.Auto.NumStates()), "count")
		p.kernel(fr.Red.G, nv)
		p.detect("detect_hpg_ms", fr.HPG.G, nv)
		p.detect("detect_rhpg_ms", fr.Red.G, nv)
		h := fr.HPG
		p.time("trace", "assemble_ms", func() {
			_, err = trace.Assemble(fr.Fn, fr.Auto, h.G, h.OrigNode, h.State, h.OrigEdge)
		})
		if err != nil {
			p.fail(fmt.Sprintf("%s/%s: assemble: %v", in.Name, name, err))
		}
	}
	return &c
}

// detect times feasible.Detect on one graph tier and counts the edges
// it proves infeasible.
func (p *Probe) detect(metric string, g *cfg.Graph, nv int) {
	var e *feasible.Edges
	p.time("feasible", metric, func() { e = feasible.Detect(g, nv) })
	p.add("feasible.infeasible_edges", float64(e.Count), "count")
}

// kernel splits one constant-propagation solve into building the packed
// solver, running it, and materializing boxed facts: the part of a
// one-shot AnalyzePacked call that the first two do not account for.
func (p *Probe) kernel(g *cfg.Graph, nv int) {
	var s *kernel.Solver
	build := p.time("kernel", "build_ms", func() { s = constprop.PackedSolver(g, nv, true) })
	solve := p.time("kernel", "solve_ms", func() { s.Run() })
	p.add("kernel.iterations", float64(s.Iterations), "count")
	p.add("kernel.pops", float64(s.Pops), "count")
	t0 := time.Now()
	constprop.AnalyzePacked(g, nv, true)
	oneShot := time.Since(t0)
	p.tr.Add("kernel.analyze_packed", p.root, t0, t0.Add(oneShot))
	p.add("kernel.materialize_ms", float64(oneShot-build-solve)/1e6, "ms")
}

// diskcache fills a fresh cache directory with the probe programs'
// recommended-point analyses, then restarts on it and replays them:
// bundle reads are timed directly, decode time comes from the engine's
// stage events.
func (p *Probe) diskcache(env *Env, ins []*Input) {
	dir, err := os.MkdirTemp(env.dir, "probe-")
	if err != nil {
		p.fail("probe cache dir: " + err.Error())
		return
	}
	defer os.RemoveAll(dir)
	fill, err := engine.Open(engine.Config{Workers: env.workers, CacheDir: dir})
	if err != nil {
		p.fail("probe cache: " + err.Error())
		return
	}
	o := engine.DefaultOptions()
	for _, in := range ins {
		if _, err := fill.AnalyzeProgram(context.Background(), in.Prog, in.Train, o); err != nil {
			p.fail(in.Name + ": fill: " + err.Error())
		}
	}
	eng, err := engine.Open(engine.Config{Workers: env.workers, CacheDir: dir})
	if err != nil {
		p.fail("probe cache: " + err.Error())
		return
	}
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		var data []byte
		p.time("diskcache", "read_ms", func() { data, _ = eng.Disk().ReadBundle(e.Name()) })
		p.add("diskcache.bytes", float64(len(data)), "B")
	}
	agg := newStageAgg()
	ctx := engine.WithStageObserver(context.Background(), agg.observer(p.tr, p.root))
	for _, in := range ins {
		if _, err := eng.AnalyzeProgram(ctx, in.Prog, in.Train, o); err != nil {
			p.fail(in.Name + ": replay: " + err.Error())
		}
	}
	st := eng.CacheStats()
	p.add("diskcache.decode_ms", agg.decodeMS, "ms")
	p.add("diskcache.hits", float64(st.Disk.Hits), "count")
	p.add("diskcache.rejects", float64(st.Disk.Rejects), "count")
}

// serve starts a daemon on a loopback listener and sends, per probe
// program, a cold inline analyze, the same request again (warm), one
// profile delta and a live analyze. Every analyze reply must equal,
// byte for byte after compaction, the in-process result for the same
// program, options and profile, and every ingest reply must equal what
// a replica stream fed the same batch reports.
func (p *Probe) serve(env *Env, ins []*Input) {
	d, err := startDaemon(env.workers)
	if err != nil {
		p.fail("probe daemon: " + err.Error())
		return
	}
	defer d.Close()
	o := engine.DefaultOptions()
	ref := engine.New(engine.Config{Workers: env.workers, Cache: true})
	expect := func(in *Input, prof *bl.ProgramProfile) ([]byte, error) {
		res, err := ref.AnalyzeProgram(context.Background(), in.Prog, prof, o)
		if err != nil {
			return nil, err
		}
		return json.Marshal(project("inline", o, res))
	}
	gen := newDeltas(env.seed)
	var analyses, cached, colds, requalify, drifts int
	var overheadMS, bytes, profileMS float64
	var runs, replayed int
	for _, in := range ins {
		spec := serve.TargetSpec{Source: in.Src, Args: in.Args, Seed: in.Seed, InputLen: in.InputLen}
		set := stream.NewSet(in.Prog, in.Train)
		var rs []*request
		for _, live := range []bool{false, false, true} {
			prof := in.Train
			if live {
				if !p.ingest(d, in, spec, set, gen.next(in), &drifts, &requalify) {
					continue
				}
				prof = set.Profile()
			}
			r := &request{body: mustJSON(serve.AnalyzeRequest{TargetSpec: spec, Live: live})}
			d.do(r, "/v1/analyze?wait=1", p.tr, p.root)
			if r.err != nil {
				p.fail(in.Name + ": probe analyze: " + r.err.Error())
				continue
			}
			p.t.ok()
			if want, err := expect(in, prof); err != nil {
				p.t.wrong(in.Name + ": in-process reference: " + err.Error())
			} else if !sameJSON(r.reply.Result, want) {
				p.t.wrong(fmt.Sprintf("%s: daemon reply (live %t) differs from the in-process result", in.Name, live))
			}
			rs = append(rs, r)
		}
		for i, r := range rs {
			m := r.reply.Metrics
			analyses++
			overheadMS += float64(r.latency)/1e6 - m.WallMS
			bytes += float64(len(r.raw))
			runs += m.StageRuns
			replayed += m.StageReplayed
			if m.ProfileCached {
				cached++
			}
			if i == 0 {
				colds++
				profileMS += m.ProfileMS
			}
		}
	}
	p.add("serve.overhead_ms", overheadMS/float64(max(1, analyses)), "ms")
	p.add("serve.resp_bytes", bytes/float64(max(1, analyses)), "B")
	p.add("serve.profile_ms", profileMS/float64(max(1, colds)), "ms")
	p.add("serve.profile_cached_ratio", float64(cached)/float64(max(1, analyses)), "ratio")
	p.add("serve.replayed_ratio", float64(replayed)/float64(max(1, runs)), "ratio")
	p.add("stream.requalify_ratio", float64(requalify)/float64(max(1, drifts)), "ratio")
	p.add("stream.applied", 0, "count") // present even when every ingest failed
}

// ingest posts one counter batch for in and checks the reply against a
// replica stream: the replica applies the same batch, and the drift is
// judged against the training profile at the recommended CA, as the
// daemon does before a target's first live analysis. It reports
// whether the daemon applied the batch.
func (p *Probe) ingest(d *daemon, in *Input, spec serve.TargetSpec, set *stream.Set, b *stream.Batch, drifts, requalify *int) bool {
	r := &request{batch: b, body: mustJSON(serve.IngestRequest{TargetSpec: spec, Agent: b.Source,
		AdvanceEpoch: b.AdvanceEpoch, Funcs: b.Funcs})}
	d.do(r, "/v1/profiles", p.tr, p.root)
	var got serve.IngestResponse
	if r.err == nil {
		r.err = json.Unmarshal(r.raw, &got)
	}
	if r.err != nil {
		p.fail(in.Name + ": probe ingest: " + r.err.Error())
		return false
	}
	p.t.ok()
	p.add("stream.applied", float64(got.Applied), "count")
	for _, dr := range got.Drift {
		*drifts++
		if dr.Requalify {
			*requalify++
		}
	}
	st, err := set.Apply(b)
	if err != nil {
		p.t.wrong(in.Name + ": replica stream refused the batch: " + err.Error())
		return true
	}
	want := mustJSON(serve.IngestResponse{
		Applied: st.Applied, Dropped: st.Dropped, Epoch: st.Epoch,
		Drift: stream.DetectDrift(in.Train, set.Profile(), in.Prog, engine.DefaultOptions().CA),
	})
	got.RequestID = ""
	if !sameJSON(mustJSON(got), want) {
		p.t.wrong(in.Name + ": ingest reply differs from the replica stream")
	}
	return true
}
