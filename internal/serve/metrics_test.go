package serve

import (
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"pathflow/internal/engine"
)

var update = flag.Bool("update", false, "rewrite golden files")

// uptimeLine is the one exposition line that depends on the clock.
var uptimeLine = regexp.MustCompile(`(?m)^pathflow_uptime_seconds .*$`)

// TestMetricsExpositionGolden pins the whole /metrics text: every
// family's HELP and TYPE lines, label sets, ordering and number
// formatting. It drives the metrics with a fixed set of job, stage,
// profile and ingest events and renders them against fixed cache
// counters, once with the disk tier and once without. Run `go test
// ./internal/serve -run ExpositionGolden -update` after an intentional
// change.
func TestMetricsExpositionGolden(t *testing.T) {
	sm := newServerMetrics()
	for i := 0; i < 3; i++ {
		sm.request()
	}
	for i := 0; i < 4; i++ {
		sm.jobAccepted()
	}
	sm.jobFinished(JobDone)
	sm.jobFinished(JobDone)
	sm.jobFinished(JobFailed)
	for _, ev := range []engine.StageEvent{
		{Stage: engine.StageTrace, Duration: 3 * time.Millisecond},
		{Stage: engine.StageReduce, Duration: 40 * time.Millisecond},
		{Stage: engine.StageAnalyze, Duration: 500 * time.Microsecond},
		{Stage: engine.StageAnalyze, Duration: 2 * time.Second},
		{Stage: engine.StageSelect, Cached: true},
		{Stage: engine.StageSelect, Cached: true},
		{Stage: engine.StageAnalyze, Cached: true, Source: engine.SourceDisk, Decode: 2 * time.Millisecond},
		{Stage: engine.StageReduce, Cached: true, Source: engine.SourceDisk, Decode: 250 * time.Microsecond},
	} {
		sm.observeStage(ev)
	}
	sm.observeProfile(false)
	sm.observeProfile(true)
	sm.observeProfile(true)
	sm.observeIngest(5, 2, 1)
	sm.observeIngest(3, 0, 0)

	cache := engine.CacheStats{Hits: 11, Misses: 7, Entries: 5, Bytes: 4096, MemEvictions: 2}
	for _, tc := range []struct {
		name string
		disk bool
	}{{"memory", false}, {"disk", true}} {
		t.Run(tc.name, func(t *testing.T) {
			c := cache
			if tc.disk {
				c.DiskEnabled = true
				c.Disk.Hits, c.Disk.Misses, c.Disk.Rejects = 3, 4, 1
				c.Disk.Writes, c.Disk.Evictions = 6, 1
				c.Disk.Entries, c.Disk.Bytes = 6, 12345
				c.Disk.DecodeCount, c.Disk.DecodeSum = 2, 0.00225
				c.Disk.DecodeBuckets = [8]int64{0, 0, 0, 1, 2, 2, 2, 2}
			}
			var b strings.Builder
			sm.render(&b, c)
			got := uptimeLine.ReplaceAllString(b.String(), "pathflow_uptime_seconds 0")
			path := filepath.Join("testdata", "metrics-"+tc.name+".golden.txt")
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run with -update to create)", err)
			}
			if got != string(want) {
				t.Errorf("/metrics exposition drifted from %s:\n%s", path, got)
			}
		})
	}
}
