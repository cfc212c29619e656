package engine_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"pathflow/internal/bench"
	"pathflow/internal/bl"
	"pathflow/internal/engine"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestCacheKeysGolden pins every cache key the pipeline derives: each
// memory-tier key and each disk bundle file name left behind by the
// seven named programs analyzed at several CA/CR points, with
// Options.Feasible and ClientsAll each on and off. The keys address
// artifacts already written to disk by earlier runs, so any drift here
// silently turns a warm disk tier cold. Run `go test
// ./internal/engine -run CacheKeysGolden -update` after an intentional
// key change (and bump diskcache.FormatVersion with it).
func TestCacheKeysGolden(t *testing.T) {
	points := []struct{ ca, cr float64 }{
		{0, 0.95}, {0.5, 0.95}, {0.97, 0.95}, {0.97, 0}, {0.97, 1}, {1, 0.95},
	}
	var b strings.Builder
	for _, bm := range bench.All() {
		prog, err := bm.Program()
		if err != nil {
			t.Fatal(err)
		}
		train, _, err := bl.ProfileProgram(prog, bm.TrainOptions())
		if err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		eng := mustOpen(t, dir, 1)
		for _, feas := range []bool{false, true} {
			for _, clients := range []engine.ClientSet{0, engine.ClientsAll} {
				for _, p := range points {
					o := engine.Options{CA: p.ca, CR: p.cr, Feasible: feas, Clients: clients}
					if _, err := eng.AnalyzeProgram(ctx, prog, train, o); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		files, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		var disk []string
		for _, f := range files {
			disk = append(disk, f.Name())
		}
		sort.Strings(disk)
		mem := eng.MemoryKeys()
		fmt.Fprintf(&b, "== %s memory %d\n", bm.Name, len(mem))
		for _, k := range mem {
			fmt.Fprintf(&b, "%s\n", k)
		}
		fmt.Fprintf(&b, "== %s disk %d\n", bm.Name, len(disk))
		for _, name := range disk {
			fmt.Fprintf(&b, "%s\n", name)
		}
	}

	got := b.String()
	path := filepath.Join("testdata", "keys.golden.txt")
	if *update {
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
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Fatalf("cache keys drifted from %s at line %d:\n got: %q\nwant: %q", path, i+1, g, w)
			}
		}
	}
}
