// Package kernel provides allocation-free data-flow solving over packed
// fact arenas — the fast backend behind dataflow.KernelPacked.
//
// The boxed framework in package dataflow models a fact as an interface
// value; every Meet and Transfer allocates, and on hot path graphs that
// grow >50x over the CFG the allocator dominates the analyze stage. The
// kernel layer replaces the representation, not the algorithm: a Domain
// stores every fact as a row of a preallocated arena (packed []uint64
// words for set lattices, parallel struct-of-arrays slices for value
// lattices), identified by a dense small integer. The solver then runs
// the exact same chaotic worklist discipline as dataflow.Solve — same
// worklist order (RPO priority for non-widening problems, FIFO for
// widening ones), same widening/narrowing schedule, same iteration
// counts — but every lattice operation is an in-place loop over
// primitive slices.
// Solutions are bit-for-bit equal to the boxed reference's (the
// differential oracle and FuzzKernelEquivalence enforce this), which is
// what lets golden metrics stay byte-identical while the representation
// underneath changes completely.
//
// Row layout for a graph of N nodes and E edges:
//
//	rows [0, N)          per-node facts (row n holds node n's fact)
//	rows N, N+1, N+2     Transfer scratch (slot outputs)
//	row  N+3             solver spare (widening save / narrowing meet)
//	rows [N+4, N+4+E)    narrowing out-fact cache (widening domains only)
//
// A Solver is built once per graph and can Run repeatedly with zero
// allocations — the property the BenchmarkAnalyzeKernels allocs gate in
// ci.sh locks down.
//
// Every client keeps the solved arena's per-node rows as its result and
// reads facts straight off them; constant propagation's are also the
// artifact the engine caches and the disk codec writes. No solve boxes
// facts: dataflow.Box does, on demand, for the oracle and the tests.
//
// A row need not hold a cell per register. Constant propagation and
// the clamped intervals behind feasible detection give a row one column
// per non-local register (cfg.Columns: a register some block reads
// before writing it) and run each Transfer on a full-width overlay
// indexed by register, storing back only the non-local registers the
// block writes. A temporary never carries a fact across a block
// boundary, so the edges and the non-local facts are the full-width
// solve's; the boxed references solve over the same columns, so the
// iteration counts still match theirs.
package kernel

import (
	"fmt"

	"pathflow/internal/cfg"
	"pathflow/internal/dataflow"
)

// Domain is the packed counterpart of dataflow.Problem: a lattice whose
// facts live in rows of a domain-owned arena. All methods take row
// indices; none may allocate after Grow has sized the arena.
type Domain interface {
	// Direction declares the problem's orientation.
	Direction() dataflow.Direction
	// Grow ensures the arena holds at least rows rows. Called once by
	// NewSolver with the total row budget; existing contents need not
	// survive.
	Grow(rows int)
	// Boundary writes the entry fact (exit fact for backward domains)
	// into row dst.
	Boundary(dst int)
	// Transfer computes the facts leaving node n given its fact in row
	// in. slots has one entry per departing edge (out-edges forward,
	// in-edges backward, in slot order), pre-initialized to -1; the
	// domain marks edge i executable by setting slots[i] to a scratch
	// sub-row index in [0, 3), meaning the fact for that edge is in row
	// scratch+slots[i]. Entries left -1 withhold the edge (the boxed
	// path's nil slot). Distinct slots may share a scratch sub-row when
	// they carry the same fact.
	Transfer(n cfg.NodeID, in, scratch int, slots []int8)
	// Copy overwrites row dst with row src.
	Copy(dst, src int)
	// Meet folds row src into row dst (dst = dst ∧ src) and reports
	// whether dst changed, under the same equality the boxed path's
	// Equal would use.
	Meet(dst, src int) bool
	// Equal reports whether two rows hold equal facts.
	Equal(a, b int) bool
}

// WidenDomain is implemented by packed domains over lattices of
// unbounded height (intervals). The solver widens at loop heads after
// dataflow.WidenThreshold changes and runs dataflow.NarrowingPasses
// narrowing passes, mirroring the boxed Widener path.
type WidenDomain interface {
	Domain
	// WidenInto extrapolates: row merged = ∇(row old, row merged).
	WidenInto(old, merged int)
}

// Solver runs the worklist algorithm for one (graph, domain) pair. All
// iteration state is preallocated by NewSolver; Run may be called any
// number of times (each call re-solves from scratch) without
// allocating.
type Solver struct {
	g   *cfg.Graph
	d   Domain
	wd  WidenDomain // non-nil iff d widens
	dir dataflow.Direction

	// Reached[n] reports whether the analysis found n executable;
	// EdgeExecutable[e] whether edge e ever carried a fact; Iterations
	// counts node transfers. All three match the boxed Solution fields
	// exactly. Valid after Run.
	Reached        []bool
	EdgeExecutable []bool
	Iterations     int

	ring         *dataflow.PriorityRing // non-widening problems
	inQueue      []bool                 // widening problems: FIFO membership …
	queue        []int32                // … and ring buffer, NumNodes+1 slots
	qhead, qtail int
	slots        []int8 // Transfer slot scratch, sized to max degree

	// Pops counts worklist pops. Every pop runs one transfer, so Pops
	// equals Iterations except for widening problems, whose narrowing
	// passes run transfers that count only toward Iterations.
	Pops int

	// executable counts this run's EdgeExecutable marks; the run stops
	// once it reaches target (-1 under Run, which never stops early).
	executable, target int

	scratch int // first Transfer scratch row
	spare   int // widening save / narrowing accumulator row

	changes  []int32
	widenAt  []bool
	rpo      []cfg.NodeID
	outBase  int    // first narrowing-cache row
	outValid []bool // per node: cache rows current
	outLive  []bool // per edge: cached fact delivered (non-nil)
}

// NewSolver sizes d's arena for g and preallocates all solver state.
func NewSolver(g *cfg.Graph, d Domain) *Solver {
	n, ne := g.NumNodes(), g.NumEdges()
	s := &Solver{
		g:              g,
		d:              d,
		dir:            d.Direction(),
		Reached:        make([]bool, n),
		EdgeExecutable: make([]bool, ne),
		scratch:        n,
		spare:          n + 3,
	}
	maxDeg := 0
	for i := 0; i < n; i++ {
		nd := g.Node(cfg.NodeID(i))
		deg := len(nd.Out)
		if s.dir == dataflow.Backward {
			deg = len(nd.In)
		}
		if deg > maxDeg {
			maxDeg = deg
		}
	}
	s.slots = make([]int8, maxDeg)
	rows := n + 4
	dfs := g.DepthFirst()
	if wd, ok := d.(WidenDomain); ok {
		s.wd = wd
		s.changes = make([]int32, n)
		s.widenAt = make([]bool, n)
		for e, retreating := range dfs.Retreating {
			switch edge := g.Edge(cfg.EdgeID(e)); {
			case !retreating:
			case s.dir == dataflow.Backward:
				s.widenAt[edge.From] = true
			default:
				s.widenAt[edge.To] = true
			}
		}
		s.rpo = dfs.RPOOrder
		s.outBase = rows
		rows += ne
		s.outValid = make([]bool, n)
		s.outLive = make([]bool, ne)
		s.inQueue = make([]bool, n)
		s.queue = make([]int32, n+1)
	} else {
		s.ring = dataflow.NewPriorityRing(n, dfs.RPOOrder, s.dir == dataflow.Backward)
	}
	d.Grow(rows)
	return s
}

// Run solves the problem from scratch, leaving the fixpoint in the
// domain's per-node rows and the reachability view on the solver. It
// performs no allocations.
func (s *Solver) Run() { s.run(-1) }

// RunUntilExecutable solves like Run but stops as soon as target edges
// are executable. An edge, once executable, stays so for the rest of an
// ascending solve, so when target is the number of edges the domain can
// deliver along at all (those its mask leaves open), Reached and
// EdgeExecutable at the stop are the fixpoint's. The rows, Iterations
// and Pops are not: only a caller that reads reachability alone, like
// feasible.Detect's folds, may ask for the stop. The next Run solves in
// full again.
func (s *Solver) RunUntilExecutable(target int) { s.run(target) }

func (s *Solver) run(target int) {
	s.reset()
	s.target = target
	g, d := s.g, s.d
	start := g.Entry
	if s.dir == dataflow.Backward {
		start = g.Exit
	}
	d.Boundary(int(start))
	s.Reached[start] = true
	s.push(start)

	for !s.empty() && s.executable != s.target {
		n := s.pop()
		s.Iterations++
		s.Pops++

		nd := g.Node(n)
		edges := nd.Out
		if s.dir == dataflow.Backward {
			edges = nd.In
		}
		sl := s.slots[:len(edges)]
		for i := range sl {
			sl[i] = -1
		}
		d.Transfer(n, int(n), s.scratch, sl)
		for slot, sub := range sl {
			if sub < 0 {
				continue
			}
			eid := edges[slot]
			if !s.EdgeExecutable[eid] {
				s.EdgeExecutable[eid] = true
				s.executable++
			}
			e := g.Edge(eid)
			to := e.To
			if s.dir == dataflow.Backward {
				to = e.From
			}
			src := s.scratch + int(sub)
			if !s.Reached[to] {
				s.Reached[to] = true
				d.Copy(int(to), src)
				s.push(to)
				continue
			}
			if s.wd != nil && s.widenAt[to] {
				// Mirror the boxed widening path: save the old fact,
				// meet, and on the threshold-crossing change replace the
				// merged fact with ∇(old, merged).
				d.Copy(s.spare, int(to))
				if d.Meet(int(to), src) {
					s.changes[to]++
					if int(s.changes[to]) > dataflow.WidenThreshold {
						s.wd.WidenInto(s.spare, int(to))
					}
					s.push(to)
				}
			} else if d.Meet(int(to), src) {
				s.push(to)
			}
		}
	}
	if s.wd != nil && s.executable != s.target {
		s.narrow()
	}
}

// reset clears all per-Run iteration state without allocating.
func (s *Solver) reset() {
	for i := range s.Reached {
		s.Reached[i] = false
	}
	for i := range s.inQueue {
		s.inQueue[i] = false
	}
	for i := range s.EdgeExecutable {
		s.EdgeExecutable[i] = false
	}
	for i := range s.changes {
		s.changes[i] = 0
	}
	s.Iterations = 0
	s.Pops = 0
	s.executable = 0
	s.qhead, s.qtail = 0, 0
	if s.ring != nil {
		s.ring.Reset()
	}
}

func (s *Solver) push(n cfg.NodeID) {
	if s.ring != nil {
		s.ring.Push(n)
		return
	}
	if !s.inQueue[n] {
		s.inQueue[n] = true
		s.queue[s.qtail] = int32(n)
		s.qtail++
		if s.qtail == len(s.queue) {
			s.qtail = 0
		}
	}
}

func (s *Solver) pop() cfg.NodeID {
	if s.ring != nil {
		return s.ring.Pop()
	}
	n := cfg.NodeID(s.queue[s.qhead])
	s.qhead++
	if s.qhead == len(s.queue) {
		s.qhead = 0
	}
	s.inQueue[n] = false
	return n
}

func (s *Solver) empty() bool {
	if s.ring != nil {
		return s.ring.Empty()
	}
	return s.qhead == s.qtail
}

// recomputeOuts refreshes the narrowing cache rows for node n: one
// Transfer into the shared scratch, then one cache row per edge.
func (s *Solver) recomputeOuts(n cfg.NodeID) {
	nd := s.g.Node(n)
	edges := nd.Out
	if s.dir == dataflow.Backward {
		edges = nd.In
	}
	sl := s.slots[:len(edges)]
	for i := range sl {
		sl[i] = -1
	}
	s.d.Transfer(n, int(n), s.scratch, sl)
	for i, eid := range edges {
		if sl[i] < 0 {
			s.outLive[eid] = false
			continue
		}
		s.outLive[eid] = true
		s.d.Copy(s.outBase+int(eid), s.scratch+int(sl[i]))
	}
	s.outValid[n] = true
}

// narrow mirrors the boxed narrowing passes exactly: reverse postorder
// (reverse RPO backward), lazy per-node out-fact caching with
// invalidation on change, and one Iterations tick per visited node.
func (s *Solver) narrow() {
	g, d := s.g, s.d
	stop := g.Entry
	if s.dir == dataflow.Backward {
		stop = g.Exit
	}
	for pass := 0; pass < dataflow.NarrowingPasses; pass++ {
		for i := range s.outValid {
			s.outValid[i] = false
		}
		for idx := range s.rpo {
			n := s.rpo[idx]
			if s.dir == dataflow.Backward {
				n = s.rpo[len(s.rpo)-1-idx]
			}
			if n == stop || !s.Reached[n] {
				continue
			}
			s.Iterations++
			accValid := false
			nd := g.Node(n)
			arrivals := nd.In
			if s.dir == dataflow.Backward {
				arrivals = nd.Out
			}
			for _, eid := range arrivals {
				e := g.Edge(eid)
				src := e.From
				if s.dir == dataflow.Backward {
					src = e.To
				}
				if !s.Reached[src] {
					continue
				}
				if !s.outValid[src] {
					s.recomputeOuts(src)
				}
				if !s.outLive[eid] {
					continue
				}
				row := s.outBase + int(eid)
				if !accValid {
					d.Copy(s.spare, row)
					accValid = true
				} else {
					d.Meet(s.spare, row)
				}
			}
			if accValid && !d.Equal(s.spare, int(n)) {
				d.Copy(int(n), s.spare)
				s.outValid[n] = false
			}
		}
	}
}

// Solution returns the solution without In. It shares the solver's
// slices, so a client calls it once done with the solver.
func (s *Solver) Solution() *dataflow.Solution {
	return &dataflow.Solution{
		Reached:        s.Reached,
		EdgeExecutable: s.EdgeExecutable,
		Iterations:     s.Iterations,
		Pops:           s.Pops,
		Direction:      s.dir,
	}
}

// String identifies the solver for debugging.
func (s *Solver) String() string {
	return fmt.Sprintf("kernel.Solver(%s, %d nodes)", s.dir, len(s.Reached))
}
