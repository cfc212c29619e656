package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"pathflow/internal/engine"
	"pathflow/internal/profile/stream"
	"pathflow/internal/serve"
)

// daemonMemory is the in-memory cache bound `pathflow serve` applies by
// default (-cachemem 512M).
const daemonMemory = 512 << 20

// daemon is a real serve.Server on a loopback listener and the HTTP
// client that talks to it.
type daemon struct {
	base    string
	hc      *http.Client
	stop    context.CancelFunc
	stopped chan error
}

func startDaemon(workers int) (*daemon, error) {
	srv, err := serve.New(serve.Config{Workers: workers, MaxJobs: workers, MemoryMaxBytes: daemonMemory})
	if err != nil {
		return nil, err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	d := &daemon{
		base: "http://" + l.Addr().String(),
		hc:   &http.Client{Transport: &http.Transport{DisableCompression: true}},
		stop: cancel, stopped: make(chan error, 1),
	}
	go func() { d.stopped <- srv.Serve(ctx, l) }()
	return d, nil
}

// Close stops the server and waits until it has stopped.
func (d *daemon) Close() {
	d.stop()
	<-d.stopped
	d.hc.CloseIdleConnections()
}

// request is one round trip and what the checks need to judge it.
type request struct {
	body  []byte
	batch *stream.Batch // ingest only

	latency time.Duration
	status  int
	err     error
	reply   reply
	raw     []byte
}

type reply struct {
	State    string            `json:"state"`
	Error    *serve.ErrorBody  `json:"error"`
	Result   json.RawMessage   `json:"result"`
	Metrics  *serve.JobMetrics `json:"metrics"`
	Started  *time.Time        `json:"started"`
	Finished *time.Time        `json:"finished"`
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only benchmark-built values are marshalled
	}
	return b
}

// do sends one request and records its round trip. With a tracer the
// request becomes a span under parent, with the job and its stages
// (from the reply's JobMetrics) as children.
func (d *daemon) do(r *request, path string, tr *Tracer, parent int) {
	t0 := time.Now()
	resp, err := d.hc.Post(d.base+path, "application/json", bytes.NewReader(r.body))
	if err == nil {
		r.raw, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		r.status = resp.StatusCode
	}
	r.latency = time.Since(t0)
	t1 := time.Now()
	switch {
	case err != nil:
		r.err = err
	case r.status != http.StatusOK:
		r.err = fmt.Errorf("HTTP %d: %s", r.status, bytes.TrimSpace(r.raw))
	case r.batch == nil:
		if err := json.Unmarshal(r.raw, &r.reply); err != nil {
			r.err = err
		} else if r.reply.State != "done" {
			r.err = fmt.Errorf("job %s: %+v", r.reply.State, r.reply.Error)
		}
	}
	if tr == nil {
		return
	}
	id := tr.Add("serve.request", parent, t0, t1)
	if r.reply.Started == nil || r.reply.Finished == nil || r.reply.Metrics == nil {
		return
	}
	js, je := *r.reply.Started, *r.reply.Finished
	job := tr.Add("serve.job", id, js, je)
	m := r.reply.Metrics
	prof := js.Add(time.Duration(m.ProfileMS * 1e6))
	tr.Add("serve.profile", job, js, prof)
	// Stage costs arrive as per-stage totals; lay them end to end after
	// the profile step, scaled down when parallel workers made them sum
	// past the job's remaining wall time.
	var total float64
	busy := map[string]float64{}
	for name, st := range m.Stages {
		b := stageBusyMS(st)
		busy[name] = b
		total += b
	}
	room := float64(je.Sub(prof)) / 1e6
	scale := 1.0
	if total > room && total > 0 {
		scale = room / total
	}
	at := prof
	for _, name := range engine.StageOrder {
		b := busy[string(name)] * scale
		if b <= 0 {
			continue
		}
		end := at.Add(time.Duration(b * 1e6))
		tr.Add("engine."+string(name), job, at, end)
		at = end
	}
}

// deltas makes the seeded counter batches the probe streams into the
// daemon: the same seed gives the same batches.
type deltas struct {
	rng splitmix
	seq map[string]uint64
}

func newDeltas(seed uint64) *deltas {
	return &deltas{rng: splitmix(seed ^ hashString("deltas")), seq: map[string]uint64{}}
}

// next builds one counter batch for a program: a training path of one
// executed function, re-observed 25-100% as often as in training, so
// some batches move the hot set and some do not.
func (g *deltas) next(in *Input) *stream.Batch {
	var fnames []string
	for _, name := range in.Prog.Order {
		if pr := in.Train.Funcs[name]; pr != nil && pr.NumPaths() > 0 {
			fnames = append(fnames, name)
		}
	}
	fname := fnames[g.rng.intn(len(fnames))]
	entries := in.Train.Funcs[fname].SortedEntries(in.Prog.Funcs[fname].G)
	e := entries[g.rng.intn(len(entries))]
	g.seq[in.Name+"/"+fname]++
	return &stream.Batch{
		Source:       "perfbench",
		AdvanceEpoch: g.rng.intn(8) == 0,
		Funcs: []stream.FuncDelta{{
			Func: fname, Seq: g.seq[in.Name+"/"+fname],
			Paths: []stream.PathDelta{{Path: e.Path.Key(), Count: max(1, e.Count*int64(1+g.rng.intn(4))/4)}},
		}},
	}
}

// sameJSON compares two JSON encodings after removing insignificant
// whitespace.
func sameJSON(a, b []byte) bool {
	var ca, cb bytes.Buffer
	if json.Compact(&ca, a) != nil || json.Compact(&cb, b) != nil {
		return false
	}
	return bytes.Equal(ca.Bytes(), cb.Bytes())
}
