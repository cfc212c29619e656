package bench

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pathflow/internal/engine"
)

// TestGoldenOracle pins the precision oracle's output: every report
// engine.CheckFuncResult returns for the seven named programs, with
// feasibility on and off and with every client attached or none (so
// both the reuse and the solve-on-the-spot paths run), followed by the
// per-client counts and edge counts of the two-axis Feasible ablation.
// The report order is part of what is pinned: `pathflow check` prints
// the reports in that order. Run `go test ./internal/bench -run
// GoldenOracle -update` after an intentional change.
func TestGoldenOracle(t *testing.T) {
	ins := loadSuite(t)
	var b strings.Builder
	for _, in := range ins {
		for _, feas := range []bool{false, true} {
			for _, clients := range []engine.ClientSet{engine.ClientsAll, 0} {
				o := engine.Options{CA: 0.97, CR: 0.95, Clients: clients, Feasible: feas}
				res, err := in.Analyze(testCtx, o)
				if err != nil {
					t.Fatal(err)
				}
				fmt.Fprintf(&b, "%s feasible=%t clients=%d\n", in.B.Name, feas, clients)
				for _, name := range in.Prog.Order {
					for _, r := range engine.CheckFuncResult(res.Funcs[name]) {
						at := 0
						for _, v := range r.ImprovedAt {
							if v {
								at++
							}
						}
						fmt.Fprintf(&b, "  %s %s %s checked=%d improved=%d at=%d violations=%d\n",
							name, r.Client, r.Graph, r.Checked, r.Improved, at, len(r.Violations))
						for _, v := range r.Violations {
							fmt.Fprintf(&b, "    %s\n", v)
						}
					}
				}
			}
		}
	}
	rows, err := Feasible(testCtx, ins)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		fmt.Fprintf(&b, "feasible %s edges=%d/%d\n", r.Name, r.InfeasibleCFG, r.InfeasibleRed)
		for _, c := range r.Clients {
			fmt.Fprintf(&b, "  %s freq=%d feas=%d both=%d\n", c.Client, c.FreqOnly, c.FeasOnly, c.Both)
		}
	}

	got := b.String()
	path := filepath.Join("testdata", "oracle.golden.txt")
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
				t.Fatalf("oracle output drifted from %s at line %d:\n got: %q\nwant: %q", path, i+1, g, w)
			}
		}
	}
}
