package engine

import (
	"time"

	"pathflow/internal/automaton"
	"pathflow/internal/availexpr"
	"pathflow/internal/bl"
	"pathflow/internal/cfg"
	"pathflow/internal/constprop"
	"pathflow/internal/dataflow/oracle"
	"pathflow/internal/feasible"
	"pathflow/internal/ir"
	"pathflow/internal/liveness"
	"pathflow/internal/opt"
	"pathflow/internal/profile"
	"pathflow/internal/reduce"
	"pathflow/internal/trace"
)

// FuncResult holds every artifact the pipeline produces for one function.
type FuncResult struct {
	Fn    *cfg.Func
	Opt   Options
	Train *bl.Profile

	// OrigSol is Wegman-Zadek on the original graph: the CA = 0
	// baseline and the "Iterative" reference for classification.
	OrigSol *constprop.Result

	// Qualified artifacts; nil when CA = 0 or the function was never
	// executed in training.
	Hot     []bl.Path
	Auto    *automaton.Automaton
	HPG     *trace.HPG
	HPGSol  *constprop.Result
	HPGProf *bl.Profile // training profile translated onto the HPG
	Red     *reduce.Reduced
	RedSol  *constprop.Result

	// Feasibility artifacts (Options.Feasible): the infeasible-edge sets
	// of the CFG and HPG tiers, detected on each graph, and of the
	// reduced tier, projected from FeasHPG (feasible.Project); FeasRed
	// is nil when qualification did not run.
	FeasCFG *feasible.Edges
	FeasHPG *feasible.Edges
	FeasRed *feasible.Edges

	// Client analyses (Options.Clients), one result per graph tier; HPG
	// and Red entries are nil when qualification did not run, and every
	// field is nil when the corresponding client was not requested.
	// AvailU is the expression universe shared by all three
	// available-expressions runs (built from the original graph).
	LiveCFG, LiveHPG, LiveRed    *liveness.Result
	AvailU                       *availexpr.Universe
	AvailCFG, AvailHPG, AvailRed *availexpr.Result

	// Oracle holds the differential-oracle reports when Options.Verify
	// ran the check stage (also obtainable on demand via
	// CheckFuncResult).
	Oracle []*oracle.Report

	// Metrics is the per-stage record, including cache hits.
	Metrics *Metrics
}

// Replayed splits the pipeline stages this result ran into those served
// from either cache tier (replayed, in execution order) and the number
// recomputed.
func (r *FuncResult) Replayed() (replayed []StageName, recomputed int) {
	for _, s := range PipelineStages {
		sm := r.Metrics.Stages[s]
		if sm.Runs == 0 {
			continue
		}
		if sm.CacheHits > 0 {
			replayed = append(replayed, s)
		} else {
			recomputed++
		}
	}
	return replayed, recomputed
}

// FinalLive returns the liveness result on FinalGraph (nil when the
// client did not run).
func (r *FuncResult) FinalLive() *liveness.Result {
	if r.Qualified() {
		return r.LiveRed
	}
	return r.LiveCFG
}

// FinalAvail returns the available-expressions result on FinalGraph
// (nil when the client did not run).
func (r *FuncResult) FinalAvail() *availexpr.Result {
	if r.Qualified() {
		return r.AvailRed
	}
	return r.AvailCFG
}

// Qualified reports whether path qualification ran for this function.
func (r *FuncResult) Qualified() bool { return r.Red != nil }

// Const is one instruction of the reduced graph whose result the
// qualified analysis proved constant, with the value.
type Const struct {
	Node  *cfg.Node
	Instr *ir.Instr
	Value ir.Value
}

// Consts lists the reduced graph's non-local constants (see
// constprop.ConstFlags) in node and instruction order; nil when
// qualification did not run.
func (r *FuncResult) Consts() []Const {
	if !r.Qualified() {
		return nil
	}
	g, sol, nv := r.Red.G, r.RedSol, r.Fn.NumVars()
	var out []Const
	for _, nd := range g.Nodes {
		if !sol.Reached(nd.ID) {
			continue
		}
		flags := constprop.ConstFlags(g, nd.ID, sol.EnvAt(nd.ID), nv, true)
		vals := sol.InstrValues(nd.ID)
		for i := range nd.Instrs {
			if flags[i] {
				out = append(out, Const{Node: nd, Instr: &nd.Instrs[i], Value: vals[i].K})
			}
		}
	}
	return out
}

// FinalGraph returns the graph later passes consume: the reduced HPG, or
// the original graph when qualification did not run.
func (r *FuncResult) FinalGraph() *cfg.Graph {
	if r.Qualified() {
		return r.Red.G
	}
	return r.Fn.G
}

// FinalSol returns the constant-propagation solution on FinalGraph.
func (r *FuncResult) FinalSol() *constprop.Result {
	if r.Qualified() {
		return r.RedSol
	}
	return r.OrigSol
}

// FinalOverlay returns the reduced graph as a profile overlay, or nil
// when qualification did not run.
func (r *FuncResult) FinalOverlay() profile.Overlay {
	if r.Qualified() {
		return r.Red
	}
	return nil
}

// FinalFunc wraps FinalGraph in a cfg.Func.
func (r *FuncResult) FinalFunc() *cfg.Func {
	if r.Qualified() {
		return r.Red.Func()
	}
	return r.Fn
}

// FinalOrigNode maps a FinalGraph node to its original vertex.
func (r *FuncResult) FinalOrigNode(n cfg.NodeID) cfg.NodeID {
	if r.Qualified() {
		return r.Red.OrigNode[n]
	}
	return n
}

// TranslateEval re-expresses an evaluation profile of the original graph
// on FinalGraph (identity when qualification did not run).
func (r *FuncResult) TranslateEval(eval *bl.Profile) (*bl.Profile, error) {
	if !r.Qualified() {
		return eval, nil
	}
	return profile.Translate(eval, r.Fn.G, r.Red)
}

// ProgramResult is the pipeline result for a whole program.
type ProgramResult struct {
	Prog  *cfg.Program
	Opt   Options
	Funcs map[string]*FuncResult
}

// OptimizedProgram rewrites each function's final graph with the
// selected optimizer passes (opt.PassConst reproduces the paper's PW
// pass; opt.PassesAll adds interval-singleton folds and dead-store
// deletion) and assembles a runnable program with the per-pass rewrite
// counts.
func (pr *ProgramResult) OptimizedProgram(ps opt.Passes) (*cfg.Program, opt.Counts) {
	out := cfg.NewProgram()
	var c opt.Counts
	for _, name := range pr.Prog.Order {
		fr := pr.Funcs[name]
		g, n := opt.OptimizeGraph(fr.FinalGraph(), fr.Fn.NumVars(), ps)
		c = c.Add(n)
		out.Add(&cfg.Func{
			Name:     fr.Fn.Name,
			Params:   fr.Fn.Params,
			VarNames: fr.Fn.VarNames,
			G:        g,
		})
	}
	return out, c
}

// BaselineProgram runs the same rewrites on clones of the original
// functions: with opt.PassConst, the paper's "Base" configuration for
// Table 2.
func BaselineProgram(prog *cfg.Program, ps opt.Passes) (*cfg.Program, opt.Counts) {
	out := cfg.NewProgram()
	var c opt.Counts
	for _, name := range prog.Order {
		f, n := opt.OptimizeFunc(prog.Funcs[name], ps)
		c = c.Add(n)
		out.Add(f)
	}
	return out, c
}

// Stats aggregates program-level size and timing numbers.
type Stats struct {
	OrigNodes, HPGNodes, RedNodes int
	HotPaths                      int
	TrainPaths                    int
	BaselineTime                  time.Duration
	QualifiedTime                 time.Duration
	// CacheHits counts pipeline stages served from the artifact cache.
	CacheHits int
}

// Stats summarizes the analysis.
func (pr *ProgramResult) Stats() Stats {
	var s Stats
	for _, fr := range pr.Funcs {
		s.OrigNodes += fr.Fn.G.NumNodes()
		s.BaselineTime += fr.Metrics.Duration(StageBaseline)
		s.QualifiedTime += fr.Metrics.Qualification()
		s.CacheHits += fr.Metrics.CacheHits()
		if fr.Train != nil {
			s.TrainPaths += fr.Train.NumPaths()
		}
		s.HotPaths += len(fr.Hot)
		if fr.Qualified() {
			s.HPGNodes += fr.HPG.G.NumNodes()
			s.RedNodes += fr.Red.G.NumNodes()
		} else {
			s.HPGNodes += fr.Fn.G.NumNodes()
			s.RedNodes += fr.Fn.G.NumNodes()
		}
	}
	return s
}
