// Package oracle implements the precision differential oracle: a static
// check that a data-flow solution computed on a derived graph (hot path
// graph or reduced HPG) is pointwise at least as precise as the solution
// on the original CFG, once projected back through the vertex
// correspondence. This is the checkable form of the paper's guarantee
// that hot-path qualification never loses information — every (v, q)
// vertex sees a subset of the paths reaching v, so its fact must sit at
// or above v's in the client's lattice.
//
// The oracle is client-agnostic: it needs only the problem's own Meet
// and Equal, because a ⊒ b in any meet-semilattice iff Meet(a, b) = b.
// It therefore works unchanged for forward and backward problems, and
// for may- and must-clients (for liveness, whose meet is set union,
// "higher" is the *smaller* live set; the same formula applies).
package oracle

import (
	"fmt"
	"strings"

	"pathflow/internal/cfg"
	"pathflow/internal/dataflow"
)

// Lattice is the fragment of dataflow.Problem the oracle needs.
type Lattice interface {
	Meet(a, b dataflow.Fact) dataflow.Fact
	Equal(a, b dataflow.Fact) bool
}

// Kind classifies a violation.
type Kind uint8

const (
	// KindReachability: the derived graph considers a vertex executable
	// whose original the CFG analysis proved unreachable (⊤ on the CFG
	// side strictly above any fact on the derived side).
	KindReachability Kind = iota
	// KindFact: the derived vertex's fact is not ⊒ the original's.
	KindFact
	// KindTrace: an edge a recorded execution actually traversed was
	// marked infeasible — the empirical refutation of a feasibility
	// mask's soundness claim (see CheckTraces).
	KindTrace
)

func (k Kind) String() string {
	switch k {
	case KindReachability:
		return "reachability"
	case KindTrace:
		return "trace"
	}
	return "fact"
}

// Violation is one vertex at which the derived solution is *not* at
// least as precise as the original one — or, for KindTrace, one edge
// whose infeasibility claim a recorded execution refuted (Edge holds
// the offending edge; Node/Orig are unused).
type Violation struct {
	Node cfg.NodeID // vertex of the derived graph
	Orig cfg.NodeID // its original CFG vertex
	Edge cfg.EdgeID // offending edge (KindTrace only)
	Kind Kind
}

func (v Violation) String() string {
	if v.Kind == KindTrace {
		return fmt.Sprintf("trace violation: executed edge %d marked infeasible", v.Edge)
	}
	return fmt.Sprintf("%s violation at derived node %d (orig %d)", v.Kind, v.Node, v.Orig)
}

// Report is the outcome of one oracle run.
type Report struct {
	Client  string // e.g. "constprop", "liveness"
	Graph   string // e.g. "hpg", "rhpg"
	Checked int    // reached derived vertices compared
	// Improved counts the vertices at which the derived solution is
	// *strictly* more precise than the base: a strictly higher fact, or
	// a vertex the derived analysis proved dead that the base reached.
	// It is the oracle's free byproduct — the ⊒ comparison already
	// distinguishes "equal" from "strictly above" — and what the
	// precision ablations report as facts improved.
	Improved int
	// ImprovedAt marks, per *base*-graph vertex, whether at least one
	// derived vertex projecting to it improved. It is the deduplicated,
	// projection-side view of Improved: a hot-path graph may hold many
	// copies of one CFG vertex, and Improved counts each copy, while
	// ImprovedAt answers "did the derived analysis learn something new
	// about this original location at all?" — the form two solutions
	// over *different* derived graphs can be compared or unioned in
	// (the two-axis precision ablation does both). Populated by Check;
	// nil for the other entry points.
	ImprovedAt []bool
	Violations []Violation
}

// OK reports whether the derived solution passed.
func (r *Report) OK() bool { return len(r.Violations) == 0 }

// Err returns nil when the report is clean, and a descriptive error
// otherwise.
func (r *Report) Err() error {
	if r.OK() {
		return nil
	}
	n := len(r.Violations)
	show := r.Violations
	if len(show) > 3 {
		show = show[:3]
	}
	parts := make([]string, len(show))
	for i, v := range show {
		parts[i] = v.String()
	}
	return fmt.Errorf("oracle: %s on %s: %d violation(s) over %d checked vertices: %s",
		r.Client, r.Graph, n, r.Checked, strings.Join(parts, "; "))
}

func (r *Report) String() string {
	if r.OK() {
		return fmt.Sprintf("oracle: %s on %s: ok (%d vertices)", r.Client, r.Graph, r.Checked)
	}
	return r.Err().Error()
}

// Check verifies that derived (a solution over a graph whose vertex n
// projects to orig(n) in the original CFG) is pointwise at least as
// precise as base (the solution over the original CFG). Vertices the
// derived analysis left unreached are trivially at ⊤ and always pass.
func Check(client, graph string, lat Lattice, base, derived *dataflow.Solution, orig func(cfg.NodeID) cfg.NodeID) *Report {
	rep := &Report{Client: client, Graph: graph, ImprovedAt: make([]bool, len(base.In))}
	for n := range derived.In {
		nid := cfg.NodeID(n)
		if !derived.Reached[n] {
			if base.Reached[orig(nid)] {
				// Derived proved the vertex dead; the base reached it.
				// Trivially ⊒ (the derived fact is ⊤) and strictly so.
				rep.Improved++
				rep.ImprovedAt[orig(nid)] = true
			}
			continue
		}
		v := orig(nid)
		rep.Checked++
		if !base.Reached[v] {
			// Original proved dead, derived claims executable: the
			// derived fact is strictly below the original's ⊤.
			rep.Violations = append(rep.Violations, Violation{Node: nid, Orig: v, Kind: KindReachability})
			continue
		}
		a, b := derived.In[n], base.In[v]
		if a == nil || b == nil {
			continue // defensive: Reached implies non-nil in both solvers
		}
		// a ⊒ b ⟺ a ∧ b = b.
		if !lat.Equal(lat.Meet(a, b), b) {
			rep.Violations = append(rep.Violations, Violation{Node: nid, Orig: v, Kind: KindFact})
		} else if !lat.Equal(a, b) {
			rep.Improved++
			rep.ImprovedAt[v] = true
		}
	}
	return rep
}

// CheckTraces is the empirical soundness gate for a feasibility mask:
// no edge a recorded execution traversed (counts[e] > 0, indexed by
// cfg.EdgeID) may be marked infeasible. The static gates certify the
// mask against the analyses' own semantics; this one certifies it
// against actual runs, so a detector bug that fools every lattice
// still trips on the first real execution through a pruned edge.
func CheckTraces(client, graph string, counts []int64, infeasible []bool) *Report {
	rep := &Report{Client: client, Graph: graph}
	for e, n := range counts {
		if e >= len(infeasible) {
			break
		}
		rep.Checked++
		if n > 0 && infeasible[e] {
			rep.Violations = append(rep.Violations, Violation{Edge: cfg.EdgeID(e), Kind: KindTrace})
		}
	}
	return rep
}

// Identity is the trivial projection for comparing two solutions over
// the same graph (e.g. conditional vs. plain constant propagation).
func Identity(n cfg.NodeID) cfg.NodeID { return n }

// Differential verifies that two solutions of the *same* problem over
// the same graph are pointwise identical — the kernel-vs-boxed gate:
// the packed arena kernels claim to change representation, not
// semantics, and this check makes the claim falsifiable. Unlike Check,
// which asserts an inequality (⊒) across graphs, Differential asserts
// equality on one graph: reachability, per-edge executability, and
// facts must all agree. Disagreements are reported as Violations
// (reachability mismatches as KindReachability, fact or edge mismatches
// as KindFact on the owning node).
func Differential(client, graph string, lat Lattice, base, derived *dataflow.Solution) *Report {
	rep := &Report{Client: client, Graph: graph}
	for n := range base.In {
		nid := cfg.NodeID(n)
		if base.Reached[n] != derived.Reached[n] {
			rep.Violations = append(rep.Violations, Violation{Node: nid, Orig: nid, Kind: KindReachability})
			continue
		}
		if !base.Reached[n] {
			continue
		}
		rep.Checked++
		if !lat.Equal(base.In[n], derived.In[n]) {
			rep.Violations = append(rep.Violations, Violation{Node: nid, Orig: nid, Kind: KindFact})
		}
	}
	for e := range base.EdgeExecutable {
		if base.EdgeExecutable[e] != derived.EdgeExecutable[e] {
			rep.Violations = append(rep.Violations, Violation{Node: 0, Orig: 0, Kind: KindFact})
			break
		}
	}
	if base.Iterations != derived.Iterations {
		// Iteration counts feed the paper's analysis-effort metrics;
		// the packed kernels must replicate the boxed schedule exactly.
		// Attribute the mismatch to the entry-most node for lack of a
		// better site.
		rep.Violations = append(rep.Violations, Violation{Node: 0, Orig: 0, Kind: KindFact})
	}
	return rep
}
