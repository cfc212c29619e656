package trace_test

import (
	"reflect"
	"slices"
	"testing"

	"pathflow/internal/automaton"
	"pathflow/internal/bl"
	"pathflow/internal/cfg"
	"pathflow/internal/interp"
	"pathflow/internal/lang"
	"pathflow/internal/paperex"
	. "pathflow/internal/trace"
)

// traceInput is a function and the qualification automaton it is
// traced against.
type traceInput struct {
	name string
	fn   *cfg.Func
	auto *automaton.Automaton
}

// traceInputs returns the paper's running example against its four
// profile paths and a lang program against the paths its training run
// took.
func traceInputs(t *testing.T) []traceInput {
	t.Helper()
	f, _, edges := paperex.Build()
	ps := paperex.Paths(edges)
	ex, err := automaton.New(f.G, paperex.Recording(edges), ps[:])
	if err != nil {
		t.Fatal(err)
	}

	prog, err := lang.Compile(`
func main() {
	i = 0;
	s = 0;
	while (i < 40) {
		if (i % 4 == 0) { s = s + 3; } else { s = s + 1; }
		if (s % 5 == 0) { s = s + i; }
		i = i + 1;
	}
	print(s);
}`)
	if err != nil {
		t.Fatal(err)
	}
	pp, _, err := bl.ProfileProgram(prog, interp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	main := pp.Funcs["main"]
	var hot []bl.Path
	for _, e := range main.Entries {
		hot = append(hot, e.Path)
	}
	la, err := automaton.New(prog.Main().G, main.R, hot)
	if err != nil {
		t.Fatal(err)
	}
	return []traceInput{{"paper-example", f, ex}, {"lang-loop", prog.Main(), la}}
}

// TestBuildIsDeterministic: tracing is a pure function of the CFG and
// the automaton, down to node and edge IDs. The disk tier depends on it:
// it stores no HPG, and re-attaches the persisted HPG-tier bundles to an
// HPG rebuilt from an automaton revived from its snapshot.
func TestBuildIsDeterministic(t *testing.T) {
	for _, in := range traceInputs(t) {
		t.Run(in.name, func(t *testing.T) {
			h1, err := Build(in.fn, in.auto)
			if err != nil {
				t.Fatal(err)
			}
			if err := h1.G.Validate(in.fn.NumVars()); err != nil {
				t.Fatal(err)
			}
			revived, err := automaton.FromSnapshot(in.auto.R, in.auto.Snapshot())
			if err != nil {
				t.Fatal(err)
			}
			for _, a := range []*automaton.Automaton{in.auto, revived} {
				h2, err := Build(in.fn, a)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(h1.G, h2.G) {
					t.Error("two builds trace different graphs")
				}
				if !slices.Equal(h1.OrigNode, h2.OrigNode) || !slices.Equal(h1.State, h2.State) ||
					!slices.Equal(h1.OrigEdge, h2.OrigEdge) {
					t.Error("two builds map nodes or edges differently")
				}
			}
		})
	}
}

// TestAssemble: reassembling a build's parts gives back the build, and
// every inconsistent part is an error, never a panic.
func TestAssemble(t *testing.T) {
	type parts struct {
		origNode []cfg.NodeID
		state    []automaton.State
		origEdge []cfg.EdgeID
	}
	defects := []struct {
		name   string
		mutate func(p *parts, fn *cfg.Func, a *automaton.Automaton)
	}{
		{"short-node-map", func(p *parts, _ *cfg.Func, _ *automaton.Automaton) { p.origNode = p.origNode[1:] }},
		{"short-state-map", func(p *parts, _ *cfg.Func, _ *automaton.Automaton) { p.state = p.state[1:] }},
		{"long-edge-map", func(p *parts, _ *cfg.Func, _ *automaton.Automaton) { p.origEdge = append(p.origEdge, 0) }},
		{"vertex-past-end", func(p *parts, fn *cfg.Func, _ *automaton.Automaton) { p.origNode[0] = cfg.NodeID(fn.G.NumNodes()) }},
		{"negative-vertex", func(p *parts, _ *cfg.Func, _ *automaton.Automaton) { p.origNode[0] = -1 }},
		{"state-past-end", func(p *parts, _ *cfg.Func, a *automaton.Automaton) { p.state[0] = automaton.State(a.NumStates()) }},
		{"negative-state", func(p *parts, _ *cfg.Func, _ *automaton.Automaton) { p.state[0] = -1 }},
		{"edge-past-end", func(p *parts, fn *cfg.Func, _ *automaton.Automaton) { p.origEdge[0] = cfg.EdgeID(fn.G.NumEdges()) }},
		{"negative-edge", func(p *parts, _ *cfg.Func, _ *automaton.Automaton) { p.origEdge[0] = -1 }},
		{"duplicate-pair", func(p *parts, _ *cfg.Func, _ *automaton.Automaton) {
			p.origNode[1], p.state[1] = p.origNode[0], p.state[0]
		}},
	}
	for _, in := range traceInputs(t) {
		t.Run(in.name, func(t *testing.T) {
			h, err := Build(in.fn, in.auto)
			if err != nil {
				t.Fatal(err)
			}
			got, err := Assemble(in.fn, in.auto, h.G, h.OrigNode, h.State, h.OrigEdge)
			if err != nil {
				t.Fatalf("assembling a build's own parts: %v", err)
			}
			if !reflect.DeepEqual(got, h) {
				t.Error("assembled HPG differs from the build")
			}
			for _, d := range defects {
				t.Run(d.name, func(t *testing.T) {
					p := parts{slices.Clone(h.OrigNode), slices.Clone(h.State), slices.Clone(h.OrigEdge)}
					d.mutate(&p, in.fn, in.auto)
					defer func() {
						if r := recover(); r != nil {
							t.Fatalf("Assemble panicked: %v", r)
						}
					}()
					if _, err := Assemble(in.fn, in.auto, h.G, p.origNode, p.state, p.origEdge); err == nil {
						t.Error("Assemble accepted inconsistent parts")
					}
				})
			}
		})
	}
}
