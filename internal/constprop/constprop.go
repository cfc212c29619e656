// Package constprop implements constant propagation: the constant
// lattice, per-register environments, instruction transfer functions, the
// Wegman-Zadek conditional constant algorithm the paper uses as its
// data-flow client, and the purely local (single basic block) analysis
// that defines the paper's "Local" category.
//
// The implementation mirrors the paper's §6 description of its SUIF pass:
// a worklist algorithm that symbolically executes a routine starting at
// its entry node and propagates values only across the legs of branches
// that can execute given the current assignment of values to variables.
// It is conservative in the same ways: calls, input() and arg() produce
// unknown (⊥) values.
package constprop

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"pathflow/internal/cfg"
	"pathflow/internal/dataflow"
	"pathflow/internal/dataflow/kernel"
	"pathflow/internal/ir"
)

// Kind classifies a lattice value.
type Kind uint8

// Lattice: Top (no evidence yet) ≥ Const(k) ≥ Bottom (not constant).
const (
	Top Kind = iota
	Const
	Bottom
)

// Value is one element of the constant lattice.
type Value struct {
	Kind Kind
	K    ir.Value // meaningful only when Kind == Const
}

// ConstOf returns the Const lattice value k.
func ConstOf(k ir.Value) Value { return Value{Kind: Const, K: k} }

// Meet combines two lattice values.
func (a Value) Meet(b Value) Value {
	switch {
	case a.Kind == Top:
		return b
	case b.Kind == Top:
		return a
	case a.Kind == Bottom || b.Kind == Bottom:
		return Value{Kind: Bottom}
	case a.K == b.K:
		return a
	default:
		return Value{Kind: Bottom}
	}
}

// IsConst reports whether the value is a known constant.
func (a Value) IsConst() bool { return a.Kind == Const }

func (a Value) String() string {
	switch a.Kind {
	case Top:
		return "⊤"
	case Bottom:
		return "⊥"
	default:
		return fmt.Sprintf("%d", a.K)
	}
}

// Env maps every register of a function to a lattice value. Envs are
// treated as immutable facts; all operations return fresh slices.
type Env []Value

// NewEnv returns an environment with every register set to k.
func NewEnv(numVars int, k Kind) Env {
	e := make(Env, numVars)
	for i := range e {
		e[i] = Value{Kind: k}
	}
	return e
}

// Clone copies the environment.
func (e Env) Clone() Env { return append(Env(nil), e...) }

// Meet combines two environments pointwise.
func (e Env) Meet(o Env) Env {
	out := make(Env, len(e))
	for i := range e {
		out[i] = e[i].Meet(o[i])
	}
	return out
}

// Equal reports pointwise equality.
func (e Env) Equal(o Env) bool {
	if len(e) != len(o) {
		return false
	}
	for i := range e {
		if e[i].Kind != o[i].Kind {
			return false
		}
		if e[i].Kind == Const && e[i].K != o[i].K {
			return false
		}
	}
	return true
}

// String renders the non-⊥ entries using the function's register names.
func (e Env) String(names []string) string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	for i, v := range e {
		if v.Kind == Bottom {
			continue
		}
		if !first {
			b.WriteString(", ")
		}
		first = false
		name := fmt.Sprintf("v%d", i)
		if names != nil && i < len(names) && names[i] != "" {
			name = names[i]
		}
		fmt.Fprintf(&b, "%s=%s", name, v.String())
	}
	b.WriteByte('}')
	return b.String()
}

// EvalInstr computes the lattice value an instruction's destination takes
// under env. Instructions without a destination yield ⊥.
func EvalInstr(in *ir.Instr, env Env) Value {
	var a, b Value
	switch {
	case in.Op.IsUnary():
		a = env[in.A]
	case in.Op.IsBinary():
		a, b = env[in.A], env[in.B]
	}
	return evalOp(in, a, b)
}

// evalOp computes an instruction's value given the values of its
// operands: a for A and b for B, each meaningful only when the opcode
// reads that operand.
func evalOp(in *ir.Instr, a, b Value) Value {
	switch {
	case in.Op == ir.Const:
		return ConstOf(in.K)
	case in.Op.IsUnary():
		switch a.Kind {
		case Const:
			return ConstOf(ir.EvalUn(in.Op, a.K))
		case Top:
			return Value{Kind: Top}
		}
		return Value{Kind: Bottom}
	case in.Op.IsBinary():
		if a.Kind == Const && b.Kind == Const {
			return ConstOf(ir.EvalBin(in.Op, a.K, b.K))
		}
		if a.Kind == Bottom || b.Kind == Bottom {
			return Value{Kind: Bottom}
		}
		return Value{Kind: Top}
	}
	// Opaque operations, Print and Nop.
	return Value{Kind: Bottom}
}

// ApplyInstr updates env in place with the effect of one instruction and
// returns the value written (⊥ for instructions with no destination).
func ApplyInstr(in *ir.Instr, env Env) Value {
	v := EvalInstr(in, env)
	if in.HasDst() {
		env[in.Dst] = v
	}
	return v
}

// TransferBlock symbolically executes node n's instructions, returning
// the environment at the block's end and, when vals is true, the value
// each instruction's destination takes.
func TransferBlock(g *cfg.Graph, n cfg.NodeID, in Env, vals bool) (Env, []Value) {
	env := in.Clone()
	nd := g.Node(n)
	var out []Value
	if vals {
		out = make([]Value, len(nd.Instrs))
	}
	for i := range nd.Instrs {
		v := ApplyInstr(&nd.Instrs[i], env)
		if vals {
			out[i] = v
		}
	}
	return env, out
}

// Problem is the constant-propagation data-flow problem over one graph.
type Problem struct {
	NumVars int
	// Conditional enables Wegman-Zadek branch pruning: a branch whose
	// condition is a known constant propagates only along the taken
	// leg, and a branch whose condition is still ⊤ propagates along
	// neither. When false the problem is the plain iterative one.
	Conditional bool
	// EntryEnv optionally overrides the environment at function entry;
	// nil uses ⊥ for parameters and ⊥ for all other registers.
	EntryEnv Env
	// Infeasible, when non-nil, marks edges (indexed by cfg.EdgeID) a
	// prior feasibility analysis proved no execution can take. Transfer
	// withholds facts along them, so the solve prunes their targets the
	// same way Wegman-Zadek prunes constant-condition legs. The solver
	// never delivers along a withheld edge, so the mask works identically
	// under the boxed and packed backends.
	Infeasible []bool
	// Cols, when non-nil, names the registers whose facts cross block
	// boundaries, as the packed rows do: Transfer resets every other
	// register to ⊤ in its out-facts, so a change to a temporary never
	// re-queues a successor. The facts at the non-local registers, the
	// reachability and the edges are those of the full problem, and the
	// iteration counts are the packed solver's. AnalyzeBoxed sets it;
	// nil solves at full width.
	Cols *cfg.Columns
}

var _ dataflow.Problem = (*Problem)(nil)

// Entry returns the entry fact.
func (p *Problem) Entry() dataflow.Fact {
	if p.EntryEnv != nil {
		return p.EntryEnv.Clone()
	}
	return NewEnv(p.NumVars, Bottom)
}

// Meet combines two environment facts.
func (p *Problem) Meet(a, b dataflow.Fact) dataflow.Fact {
	return a.(Env).Meet(b.(Env))
}

// Equal compares two environment facts.
func (p *Problem) Equal(a, b dataflow.Fact) bool {
	return a.(Env).Equal(b.(Env))
}

// Transfer symbolically executes the block and distributes the resulting
// environment to the executable out-edges.
func (p *Problem) Transfer(g *cfg.Graph, n cfg.NodeID, in dataflow.Fact, out []dataflow.Fact) {
	env, _ := TransferBlock(g, n, in.(Env), false)
	nd := g.Node(n)
	var cond Value
	if nd.Kind == cfg.TermBranch {
		cond = env[nd.Cond]
	}
	if p.Cols != nil {
		for r := range env {
			if p.Cols.Of(ir.Var(r)) < 0 {
				env[r] = Value{Kind: Top}
			}
		}
	}
	switch nd.Kind {
	case cfg.TermJump, cfg.TermReturn:
		out[0] = env
	case cfg.TermBranch:
		if !p.Conditional {
			out[0], out[1] = env, env.Clone()
			return
		}
		switch cond.Kind {
		case Top:
			// No evidence about the condition yet: neither leg is
			// known executable (optimistic).
		case Const:
			if cond.K != 0 {
				out[0] = env
			} else {
				out[1] = env
			}
		case Bottom:
			out[0], out[1] = env, env.Clone()
		}
	case cfg.TermHalt:
		// no successors
	}
	if p.Infeasible != nil {
		for i, eid := range nd.Out {
			if i < len(out) && int(eid) < len(p.Infeasible) && p.Infeasible[eid] {
				out[i] = nil
			}
		}
	}
}

// Result is a solved constant-propagation problem over G, held in the
// packed solver's own representation: Rows is a kernel.KV arena whose
// row n is node n's entry environment at the non-local registers, one
// normalized (kind, value) cell per column of Cols (value 0 unless
// Const). The rows of nodes the analysis never reached are all ⊤, so
// meets over vertex sets treat them as the identity, as the reduction
// algorithm requires. Sol carries the rest of the solution — Reached,
// EdgeExecutable, Iterations and Pops — and never boxed facts (Sol.In
// is nil).
//
// Value reads one cell and InstrValues and ConstFlags evaluate a block
// from its inputs, which are non-local registers by definition. EnvAt
// and Boxed return whole environments, NumVars registers wide, solving
// the temporaries' facts from the rows (see solveFull): EnvAt's first
// call keeps them, Boxed solves them afresh.
type Result struct {
	G       *cfg.Graph
	Sol     *dataflow.Solution
	Rows    kernel.KV
	Cols    *cfg.Columns
	NumVars int

	fullOnce sync.Once
	full     atomic.Pointer[kernel.KV] // NumVars-wide rows, once fullRows ran
}

// AnalyzeBoxed runs constant propagation over g on the boxed reference
// solver, the test oracle for AnalyzePacked. conditional selects the
// Wegman-Zadek algorithm (true) or plain iterative propagation (false).
func AnalyzeBoxed(g *cfg.Graph, numVars int, conditional bool) *Result {
	return AnalyzeBoxedMasked(g, numVars, conditional, nil)
}

// AnalyzeBoxedMasked runs boxed constant propagation with the given
// infeasible-edge mask (nil behaves like AnalyzeBoxed) over g's column
// map, as the packed solver does, and packs the boxed facts at the
// non-local registers into the same rows the packed solver fills.
func AnalyzeBoxedMasked(g *cfg.Graph, numVars int, conditional bool, infeasible []bool) *Result {
	cols := g.Columns()
	p := &Problem{NumVars: numVars, Conditional: conditional, Infeasible: infeasible, Cols: cols}
	sol := dataflow.Solve(g, p)
	r := &Result{G: g, Sol: sol, Rows: kernel.KV{Width: cols.Width()}, Cols: cols, NumVars: numVars}
	r.Rows.Grow(g.NumNodes())
	for n, f := range sol.In {
		if f == nil {
			continue
		}
		k, v := r.Rows.Row(n)
		env := f.(Env)
		for c, reg := range cols.Regs {
			x := env[reg]
			k[c] = uint8(x.Kind)
			if x.Kind == Const {
				v[c] = x.K
			}
		}
	}
	sol.In = nil
	return r
}

// Value returns register reg's lattice value at node n's entry (⊤ when
// n is unreached). A temporary's value comes from fullRows.
func (r *Result) Value(n cfg.NodeID, reg ir.Var) Value {
	rows, c := &r.Rows, r.Cols.Of(reg)
	if c < 0 {
		rows, c = r.fullRows(), int(reg)
	}
	i := int(n)*rows.Width + c
	return Value{Kind: Kind(rows.Kind[i]), K: rows.Val[i]}
}

// EnvAt boxes the environment at node n's entry into a fresh Env of
// NumVars registers; unreached nodes yield the all-⊤ environment. The
// first call keeps the whole-environment rows (see fullRows).
func (r *Result) EnvAt(n cfg.NodeID) Env { return envAt(r.fullRows(), int(n)) }

// Boxed returns a copy of the solution with In filled: one boxed Env per
// reached node, nil elsewhere — the form the differential oracle and the
// boxed reference compare. It solves the temporaries into rows of its
// own, so a cached Result does not grow by them.
func (r *Result) Boxed() *dataflow.Solution {
	full := r.solveFull()
	return dataflow.Box(r.Sol, func(n int) dataflow.Fact { return envAt(full, n) })
}

// envAt boxes row n of NumVars-wide rows.
func envAt(full *kernel.KV, n int) Env {
	k, v := full.Row(n)
	e := make(Env, len(k))
	for i := range k {
		e[i] = Value{Kind: Kind(k[i]), K: v[i]}
	}
	return e
}

// FullBytes reports the bytes of the whole-environment rows EnvAt has
// kept, 0 before its first call.
func (r *Result) FullBytes() int64 {
	if f := r.full.Load(); f != nil {
		return int64(len(f.Kind)) * 9
	}
	return 0
}

// inputs returns the values of b's inputs at node n's entry. Inputs are
// non-local registers, so each is one cell of Rows.
func (r *Result) inputs(b *Block, n cfg.NodeID) []Value {
	in := make([]Value, len(b.Inputs))
	for k, reg := range b.Inputs {
		in[k] = r.Value(n, reg)
	}
	return in
}

// InstrValues returns the lattice value of each instruction's destination
// in node n under the solved environment. Unreached nodes yield values
// under the all-⊤ environment.
func (r *Result) InstrValues(n cfg.NodeID) []Value {
	b := NewBlock(r.G.Node(n).Instrs)
	vals := make([]Value, len(b.Instrs))
	b.Eval(r.inputs(b, n), vals)
	return vals
}

// ConstFlags is the package function ConstFlags under the solved
// environment at node n's entry, read at the block's inputs only.
func (r *Result) ConstFlags(n cfg.NodeID, excludeLocal bool) []bool {
	b := NewBlock(r.G.Node(n).Instrs)
	return b.flags(r.inputs(b, n), excludeLocal)
}

// Reached reports whether the analysis found node n executable.
func (r *Result) Reached(n cfg.NodeID) bool { return r.Sol.Reached[n] }

// LocalValues returns the value of each instruction in n derivable by
// purely local analysis: symbolic execution of the block alone, starting
// from an all-⊥ environment. Instructions constant under this analysis
// form the paper's "Local" category (e.g. every Const instruction). The
// register count is unused: a block's values depend only on its inputs.
func LocalValues(g *cfg.Graph, n cfg.NodeID, _ int) []Value {
	return NewBlock(g.Node(n).Instrs).Local
}

// ConstFlags reports, per instruction of node n, whether the instruction
// has a constant result under env. Only pure instructions with a
// destination qualify. When excludeLocal is set, instructions already
// constant under local analysis (the paper's trivial constants) are
// skipped — the remaining flags mark the paper's "non-local" constants.
// The register count is unused: only env's values at the block's inputs
// are read.
func ConstFlags(g *cfg.Graph, n cfg.NodeID, env Env, _ int, excludeLocal bool) []bool {
	b := NewBlock(g.Node(n).Instrs)
	return b.flags(b.Project(nil, env), excludeLocal)
}

// flags is ConstFlags for b entered with its inputs holding in.
func (b *Block) flags(in []Value, excludeLocal bool) []bool {
	vals := make([]Value, len(b.Instrs))
	b.Eval(in, vals)
	flags := make([]bool, len(b.Instrs))
	if excludeLocal {
		for _, i := range b.Candidates {
			flags[i] = vals[i].IsConst()
		}
		return flags
	}
	for i := range b.Instrs {
		in := &b.Instrs[i]
		flags[i] = in.Op.IsPure() && in.HasDst() && vals[i].IsConst()
	}
	return flags
}
