package reduce_test

import (
	"context"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"pathflow/internal/automaton"
	"pathflow/internal/bench"
	"pathflow/internal/bl"
	"pathflow/internal/cfg"
	"pathflow/internal/constprop"
	"pathflow/internal/engine"
	"pathflow/internal/interp"
	"pathflow/internal/ir"
	"pathflow/internal/lang"
	"pathflow/internal/paperex"
	"pathflow/internal/profile"
	"pathflow/internal/progen"
	. "pathflow/internal/reduce"
	"pathflow/internal/trace"
)

// buildReduced runs the full §5 pipeline on the paper's example with the
// given CR.
func buildReduced(t *testing.T, cr float64) (*cfg.Func, *trace.HPG, *constprop.Result, *Reduced, *bl.Profile) {
	t.Helper()
	f, _, edges := paperex.Build()
	pr := paperex.Profile(edges)
	ps := paperex.Paths(edges)
	a, err := automaton.New(f.G, paperex.Recording(edges), ps[:])
	if err != nil {
		t.Fatal(err)
	}
	h, err := trace.Build(f, a)
	if err != nil {
		t.Fatal(err)
	}
	sol := constprop.AnalyzeBoxed(h.G, f.NumVars(), true)
	tp, err := profile.Translate(pr, f.G, h)
	if err != nil {
		t.Fatal(err)
	}
	red, err := Reduce(h, sol, tp, Options{CR: cr})
	if err != nil {
		t.Fatal(err)
	}
	// Build and Assemble check only the structure; the blocks are f's.
	for _, g := range []*cfg.Graph{h.G, red.G} {
		if err := g.Validate(f.NumVars()); err != nil {
			t.Fatal(err)
		}
	}
	return f, h, sol, red, tp
}

func hpgByName(h *trace.HPG) map[string]cfg.NodeID {
	m := map[string]cfg.NodeID{}
	for _, nd := range h.G.Nodes {
		m[nd.Name] = nd.ID
	}
	return m
}

func TestWeightsMatchPaper(t *testing.T) {
	_, h, _, red, _ := buildReduced(t, 0.6)
	names := hpgByName(h)
	// Paper §5: "H12 weighs 30, H13 weighs 100, H14 weighs 140, H15
	// weighs 60, and I17 weighs 70. All the other vertices have weight 0."
	want := map[string]int64{"H12": 30, "H13": 100, "H14": 140, "H15": 60, "I17": 70}
	var total int64
	for name, w := range want {
		if got := red.Weights[names[name]]; got != w {
			t.Errorf("weight[%s] = %d, want %d", name, got, w)
		}
		total += w
	}
	var sum int64
	for _, w := range red.Weights {
		sum += w
	}
	if sum != total {
		t.Errorf("total weight = %d, want %d (all other vertices 0)", sum, total)
	}
}

func TestHotSelectionAtCR06(t *testing.T) {
	_, h, _, red, _ := buildReduced(t, 0.6)
	names := hpgByName(h)
	// CR = 0.6 of 400 = 240 = weight(H14) + weight(H13): exactly the
	// paper's "suppose CR is chosen such that H13 and H14 are the only
	// hot vertices".
	wantHot := map[cfg.NodeID]bool{names["H13"]: true, names["H14"]: true}
	if len(red.Hot) != 2 {
		t.Fatalf("hot vertices = %d, want 2", len(red.Hot))
	}
	for _, n := range red.Hot {
		if !wantHot[n] {
			t.Errorf("unexpected hot vertex %s", h.G.Node(n).Name)
		}
	}
}

// classOfNames returns the partition as a sorted list of sorted name
// lists, for comparison against the paper's sets.
func partitionNames(h *trace.HPG, red *Reduced) []string {
	var classes []string
	for _, members := range red.Members {
		var names []string
		for _, n := range members {
			names = append(names, h.G.Node(n).Name)
		}
		sort.Strings(names)
		classes = append(classes, strings.Join(names, ","))
	}
	sort.Strings(classes)
	return classes
}

func TestReductionReproducesFigure8Partition(t *testing.T) {
	_, h, _, red, _ := buildReduced(t, 0.6)
	got := partitionNames(h, red)
	want := []string{
		"A0", "B0", "B1", "C3", "Cε", "D2", "D4",
		"E5", "E6", "E7,Eε", "F10", "F11,F8,Fε",
		"G9", "Gε", "H12,H15,Hε", "H13", "H14",
		"I16,I17,Iε", "entryε", "exit0",
	}
	sort.Strings(want)
	if len(got) != len(want) {
		t.Fatalf("classes = %d, want %d:\n%v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("class %d = %q, want %q", i, got[i], want[i])
		}
	}
	if red.G.NumNodes() != 20 {
		t.Errorf("rHPG nodes = %d, want 20", red.G.NumNodes())
	}
}

func TestReducedGraphConstants(t *testing.T) {
	f, _, _, red, _ := buildReduced(t, 0.6)
	sol := constprop.AnalyzeBoxed(red.G, f.NumVars(), true)
	byName := map[string]cfg.NodeID{}
	for _, nd := range red.G.Nodes {
		byName[nd.Name] = nd.ID
	}
	xAt := func(node string) constprop.Value {
		vals := sol.InstrValues(byName[node])
		for i, in := range red.G.Node(byName[node]).Instrs {
			if in.Dst == paperex.VarX {
				return vals[i]
			}
		}
		t.Fatalf("no x instruction in %s", node)
		return constprop.Value{}
	}
	// Figure 8: a+b is 6 at H14 and 4 at H13; the merged H loses x.
	if got := xAt("H14"); got != constprop.ConstOf(6) {
		t.Errorf("x at H14 = %v, want 6", got)
	}
	if got := xAt("H13"); got != constprop.ConstOf(4) {
		t.Errorf("x at H13 = %v, want 4", got)
	}
	if got := xAt("H"); got.IsConst() {
		t.Errorf("x at merged H = %v, want non-constant", got)
	}
}

func TestReducedRecordingEdges(t *testing.T) {
	f, _, _, red, _ := buildReduced(t, 0.6)
	_, _, edges := paperex.Build()
	R := paperex.Recording(edges)
	// Recording edges: entry→A0 (1), H*→B0 from {H,H13,H14} classes (3),
	// I→exit (1): 5 in total.
	if got := len(red.Recording); got != 5 {
		t.Errorf("rHPG recording edges = %d, want 5", got)
	}
	for re := range red.Recording {
		if !R[red.OrigEdge[re]] {
			t.Errorf("rHPG recording edge %d projects to non-recording edge", re)
		}
	}
	_ = f
}

func TestReducedProfileTranslation(t *testing.T) {
	f, _, _, red, _ := buildReduced(t, 0.6)
	_, _, edges := paperex.Build()
	pr := paperex.Profile(edges)
	rp, err := profile.Translate(pr, f.G, red)
	if err != nil {
		t.Fatalf("Translate onto rHPG: %v", err)
	}
	if err := rp.Validate(red.G); err != nil {
		t.Fatal(err)
	}
	if rp.TotalCount() != pr.TotalCount() {
		t.Errorf("count = %d, want %d", rp.TotalCount(), pr.TotalCount())
	}
	if got, want := rp.DynInstrs(red.G), pr.DynInstrs(f.G); got != want {
		t.Errorf("dyn instrs = %d, want %d", got, want)
	}
	// Frequencies at the preserved hot vertices are unchanged.
	freq := profile.NodeFrequencies(rp, red.G)
	byName := map[string]cfg.NodeID{}
	for _, nd := range red.G.Nodes {
		byName[nd.Name] = nd.ID
	}
	if got := freq[byName["H14"]]; got != 70 {
		t.Errorf("freq[H14] = %d, want 70", got)
	}
	if got := freq[byName["H13"]]; got != 100 {
		t.Errorf("freq[H13] = %d, want 100", got)
	}
	// The merged H absorbs the remaining H traffic (30 + 30).
	if got := freq[byName["H"]]; got != 60 {
		t.Errorf("freq[H] = %d, want 60", got)
	}
}

func TestReducedExecutionEquivalence(t *testing.T) {
	f, _, _, red, _ := buildReduced(t, 0.6)
	for kind := 1; kind <= 3; kind++ {
		in := paperex.RunInputs(kind)
		p1 := cfg.NewProgram()
		p1.Add(f)
		r1, err := interp.Run(p1, interp.Options{Input: &interp.SliceInput{Values: in}})
		if err != nil {
			t.Fatal(err)
		}
		p2 := cfg.NewProgram()
		p2.Add(red.Func())
		r2, err := interp.Run(p2, interp.Options{Input: &interp.SliceInput{Values: in}})
		if err != nil {
			t.Fatal(err)
		}
		if r1.Ret != r2.Ret || r1.DynInstrs != r2.DynInstrs {
			t.Errorf("kind %d: original ret=%d di=%d, reduced ret=%d di=%d",
				kind, r1.Ret, r1.DynInstrs, r2.Ret, r2.DynInstrs)
		}
	}
}

func TestReduceCR1KeepsAllConstants(t *testing.T) {
	// With CR = 1 every weighted vertex is hot, so all five constant
	// sites survive reduction.
	f, h, _, red, _ := buildReduced(t, 1.0)
	if len(red.Hot) != 5 {
		t.Fatalf("hot vertices at CR=1: %d, want 5", len(red.Hot))
	}
	sol := constprop.AnalyzeBoxed(red.G, f.NumVars(), true)
	rp := profileOnReduced(t, red)
	freq := profile.NodeFrequencies(rp, red.G)
	var weighted int64
	for _, nd := range red.G.Nodes {
		vals := sol.InstrValues(nd.ID)
		local := constprop.LocalValues(red.G, nd.ID, f.NumVars())
		for i := range nd.Instrs {
			if vals[i].IsConst() && !local[i].IsConst() {
				weighted += freq[nd.ID]
			}
		}
	}
	// 140 + 100 + 70 + 60 + 30 = 400 dynamic non-local constants.
	if weighted != 400 {
		t.Errorf("dynamic non-local constants after CR=1 reduction = %d, want 400", weighted)
	}
	_ = h
}

func profileOnReduced(t *testing.T, red *Reduced) *bl.Profile {
	t.Helper()
	f, _, edges := paperex.Build()
	pr := paperex.Profile(edges)
	rp, err := profile.Translate(pr, f.G, red)
	if err != nil {
		t.Fatal(err)
	}
	return rp
}

func TestReduceDeterministic(t *testing.T) {
	// The greedy partition, Hopcroft refinement and quotient
	// construction involve maps internally; the result must still be
	// identical across runs.
	_, h1, _, red1, _ := buildReduced(t, 0.6)
	_, h2, _, red2, _ := buildReduced(t, 0.6)
	p1 := partitionNames(h1, red1)
	p2 := partitionNames(h2, red2)
	if len(p1) != len(p2) {
		t.Fatalf("partition sizes differ: %d vs %d", len(p1), len(p2))
	}
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatalf("partitions differ at %d: %q vs %q", i, p1[i], p2[i])
		}
	}
	if red1.G.String() != red2.G.String() {
		t.Error("reduced graphs differ across runs")
	}
}

func TestReducedGraphIsCongruence(t *testing.T) {
	// Every member of a class must agree, per successor slot, on the
	// class of its successor — the property that makes the quotient
	// well-defined (§5 step 3).
	_, h, _, red, _ := buildReduced(t, 0.6)
	for c, members := range red.Members {
		for _, m := range members {
			for _, eid := range h.G.Node(m).Out {
				e := h.G.Edge(eid)
				leader := members[0]
				le := h.G.Edge(h.G.Node(leader).Out[e.Slot])
				if red.Class[e.To] != red.Class[le.To] {
					t.Fatalf("class %d not a congruence at slot %d", c, e.Slot)
				}
			}
		}
	}
}

func TestReduceCR0CollapsesToOriginalSize(t *testing.T) {
	// With CR = 0 nothing is hot, so every duplicate merges back; the
	// reduced graph can be at most one node per (original vertex, per
	// congruence-forced split). For the example everything re-merges
	// except the B duplicates forced apart by nothing — with no hot
	// vertices the congruence is satisfiable with one class per vertex.
	f, _, _, red, _ := buildReduced(t, 0)
	if len(red.Hot) != 0 {
		t.Fatalf("hot vertices at CR=0: %d, want 0", len(red.Hot))
	}
	if got, want := red.G.NumNodes(), f.G.NumNodes(); got != want {
		t.Errorf("rHPG nodes at CR=0 = %d, want %d (original size)", got, want)
	}
	if red.Growth() != 0 {
		t.Errorf("growth = %v, want 0", red.Growth())
	}
}

// referencePartition is steps 1 and 2 of §5 over whole environments: it
// weighs every HPG node and tests every compatibility meet by symbolic
// execution under the node's full solved environment, the formulation
// Reduce replaced by evaluation over block inputs. It returns the inputs
// of steps 3 and 4.
func referencePartition(h *trace.HPG, sol *constprop.Result, hpgProf *bl.Profile, cr float64) (weights []int64, hotList []cfg.NodeID, class []int, numClasses int) {
	g := h.G
	numVars := h.Fn.NumVars()
	freq := profile.NodeFrequencies(hpgProf, g)
	nonLocal := func(n cfg.NodeID, env constprop.Env) []bool {
		_, vals := constprop.TransferBlock(g, n, env, true)
		_, local := constprop.TransferBlock(g, n, constprop.NewEnv(numVars, constprop.Bottom), true)
		mask := make([]bool, len(vals))
		for i, in := range g.Node(n).Instrs {
			mask[i] = in.Op.IsPure() && in.HasDst() && vals[i].IsConst() && !local[i].IsConst()
		}
		return mask
	}
	contains := func(got, need []bool) bool {
		for i := range need {
			if need[i] && !got[i] {
				return false
			}
		}
		return true
	}

	weights = make([]int64, g.NumNodes())
	masks := make([][]bool, g.NumNodes())
	var total int64
	for _, nd := range g.Nodes {
		masks[nd.ID] = nonLocal(nd.ID, sol.EnvAt(nd.ID))
		for _, c := range masks[nd.ID] {
			if c {
				weights[nd.ID] += freq[nd.ID]
			}
		}
		total += weights[nd.ID]
	}
	byWeight := func(ns []cfg.NodeID) {
		sort.Slice(ns, func(i, j int) bool {
			if weights[ns[i]] != weights[ns[j]] {
				return weights[ns[i]] > weights[ns[j]]
			}
			return ns[i] < ns[j]
		})
	}
	order := make([]cfg.NodeID, g.NumNodes())
	for i := range order {
		order[i] = cfg.NodeID(i)
	}
	byWeight(order)
	hot := make([]bool, g.NumNodes())
	var acc float64
	for _, n := range order {
		if acc >= cr*float64(total) || weights[n] == 0 {
			break
		}
		hot[n] = true
		hotList = append(hotList, n)
		acc += float64(weights[n])
	}

	byOrig := map[cfg.NodeID][]cfg.NodeID{}
	var origIDs []cfg.NodeID
	for _, nd := range g.Nodes {
		ov := h.OrigNode[nd.ID]
		if byOrig[ov] == nil {
			origIDs = append(origIDs, ov)
		}
		byOrig[ov] = append(byOrig[ov], nd.ID)
	}
	sort.Slice(origIDs, func(i, j int) bool { return origIDs[i] < origIDs[j] })
	class = make([]int, g.NumNodes())
	for _, ov := range origIDs {
		group := byOrig[ov]
		byWeight(group)
		type set struct {
			id      int
			meet    constprop.Env
			hasHot  bool
			hotMask []bool
		}
		var sets []*set
		for _, n := range group {
			env := sol.EnvAt(n)
			placed := false
			for _, s := range sets {
				if !s.hasHot && !hot[n] {
					s.meet = s.meet.Meet(env)
					class[n], placed = s.id, true
					break
				}
				m := s.meet.Meet(env)
				got := nonLocal(n, m)
				if !contains(got, s.hotMask) || hot[n] && !contains(got, masks[n]) {
					continue
				}
				s.meet = m
				if hot[n] {
					s.hasHot = true
					for i, c := range masks[n] {
						s.hotMask[i] = s.hotMask[i] || c
					}
				}
				class[n], placed = s.id, true
				break
			}
			if !placed {
				s := &set{id: numClasses, meet: env.Clone(), hasHot: hot[n], hotMask: make([]bool, len(masks[n]))}
				if hot[n] {
					copy(s.hotMask, masks[n])
				}
				numClasses++
				sets = append(sets, s)
				class[n] = s.id
			}
		}
	}
	return weights, hotList, class, numClasses
}

// readsOwnDef reports whether some instruction of g reads a register an
// earlier instruction of the same block wrote.
func readsOwnDef(g *cfg.Graph) bool {
	for _, nd := range g.Nodes {
		written := map[ir.Var]bool{}
		for i := range nd.Instrs {
			for _, r := range nd.Instrs[i].Uses(nil) {
				if written[r] {
					return true
				}
			}
			if nd.Instrs[i].HasDst() {
				written[nd.Instrs[i].Dst] = true
			}
		}
	}
	return false
}

// checkAgainstReference reduces every qualified function of res at each
// CR ∈ {0, 0.1, …, 1} both ways and requires identical results. It
// returns the number of reductions compared and whether any compared
// HPG reads a register its own block defined.
func checkAgainstReference(t *testing.T, label string, res *engine.ProgramResult) (compared int, ownDef bool) {
	t.Helper()
	for _, name := range res.Prog.Order {
		fr := res.Funcs[name]
		if fr.HPG == nil {
			continue
		}
		ownDef = ownDef || readsOwnDef(fr.HPG.G)
		for i := 0; i <= 10; i++ {
			cr := float64(i) / 10
			got, err := Reduce(fr.HPG, fr.HPGSol, fr.HPGProf, Options{CR: cr})
			if err != nil {
				t.Fatalf("%s/%s CR=%.1f: %v", label, name, cr, err)
			}
			for _, g := range []*cfg.Graph{fr.HPG.G, got.G} {
				if err := g.Validate(fr.Fn.NumVars()); err != nil {
					t.Fatalf("%s/%s CR=%.1f: %v", label, name, cr, err)
				}
			}
			weights, hot, class, numClasses := referencePartition(fr.HPG, fr.HPGSol, fr.HPGProf, cr)
			want, err := Quotient(fr.HPG, weights, hot, class, numClasses)
			if err != nil {
				t.Fatalf("%s/%s CR=%.1f: reference: %v", label, name, cr, err)
			}
			switch {
			case !reflect.DeepEqual(got.Weights, want.Weights):
				t.Errorf("%s/%s CR=%.1f: weights differ from the reference", label, name, cr)
			case !reflect.DeepEqual(got.Hot, want.Hot):
				t.Errorf("%s/%s CR=%.1f: hot vertices %v, reference %v", label, name, cr, got.Hot, want.Hot)
			case !reflect.DeepEqual(got.Class, want.Class):
				t.Errorf("%s/%s CR=%.1f: partition differs from the reference", label, name, cr)
			case !reflect.DeepEqual(got, want) || got.G.String() != want.G.String():
				t.Errorf("%s/%s CR=%.1f: rHPG differs from the reference", label, name, cr)
			}
			compared++
		}
	}
	return compared, ownDef
}

// TestReduceMatchesFullEnvironmentReference pins the block-input
// projection to the whole-environment formulation on every function of
// the named programs at each coverage level, and on generated programs
// with correlated branches.
func TestReduceMatchesFullEnvironmentReference(t *testing.T) {
	ctx := context.Background()
	eng := engine.New(engine.Config{Workers: 1})
	compared, ownDef := 0, false
	for _, b := range bench.All() {
		in, err := bench.Load(b, eng)
		if err != nil {
			t.Fatal(err)
		}
		for _, ca := range bench.CoverageLevels {
			res, err := in.Analyze(ctx, engine.Options{CA: ca, CR: 0.95})
			if err != nil {
				t.Fatal(err)
			}
			n, own := checkAgainstReference(t, fmt.Sprintf("%s CA=%v", b.Name, ca), res)
			compared += n
			ownDef = ownDef || own
		}
	}
	named := compared
	for seed := uint64(1); seed <= 12; seed++ {
		cfgGen := progen.DefaultConfig(seed)
		cfgGen.Correlated = 40
		prog, err := lang.Compile(progen.Generate(cfgGen))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		train, _, err := bl.ProfileProgram(prog, interp.Options{
			Args:     []ir.Value{3, 7, 11},
			Input:    &interp.SliceInput{Values: bench.InputValues(seed, 64)},
			MaxSteps: 2_000_000,
		})
		if err != nil {
			t.Fatalf("seed %d: training run: %v", seed, err)
		}
		for _, ca := range []float64{0.75, 0.97, 1} {
			res, err := eng.AnalyzeProgram(ctx, prog, train, engine.Options{CA: ca, CR: 0.95})
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			n, own := checkAgainstReference(t, fmt.Sprintf("progen %d CA=%v", seed, ca), res)
			compared += n
			ownDef = ownDef || own
		}
	}
	if named == 0 || compared == named {
		t.Fatalf("reductions compared: %d named, %d generated; want both > 0", named, compared-named)
	}
	if !ownDef {
		t.Error("no compared block reads a register defined earlier in the same block")
	}
	t.Logf("%d named and %d generated reductions compared", named, compared-named)
}

// TestPartitionSharesOneWeighing weighs every qualified HPG of the named
// programs at CA .97 once and partitions it at each CR ∈ {0, 0.1, …, 1}:
// the hot prefix must not shrink as CR grows, and each partition of the
// shared weighing must equal a Reduce run from scratch at that CR, so
// no partition disturbs the weighing the next one reads.
func TestPartitionSharesOneWeighing(t *testing.T) {
	ctx := context.Background()
	eng := engine.New(engine.Config{Workers: 1})
	compared, distinct := 0, 0
	for _, b := range bench.All() {
		in, err := bench.Load(b, eng)
		if err != nil {
			t.Fatal(err)
		}
		res, err := in.Analyze(ctx, engine.Options{CA: 0.97, CR: 0.95})
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range res.Prog.Order {
			fr := res.Funcs[name]
			if fr.HPG == nil {
				continue
			}
			w := Weigh(fr.HPG, fr.HPGSol, fr.HPGProf)
			prev := -1
			for i := 0; i <= 10; i++ {
				cr := float64(i) / 10
				k := HotPrefix(w, cr)
				if k < prev {
					t.Errorf("%s/%s: HotPrefix fell from %d to %d at CR=%.1f", b.Name, name, prev, k, cr)
				}
				if k != prev {
					distinct++
				}
				prev = k
				got, err := Partition(fr.HPG, fr.HPGSol, w, k)
				if err != nil {
					t.Fatalf("%s/%s CR=%.1f: %v", b.Name, name, cr, err)
				}
				want, err := Reduce(fr.HPG, fr.HPGSol, fr.HPGProf, Options{CR: cr})
				if err != nil {
					t.Fatalf("%s/%s CR=%.1f: %v", b.Name, name, cr, err)
				}
				if !reflect.DeepEqual(got, want) || got.G.String() != want.G.String() {
					t.Errorf("%s/%s CR=%.1f: Partition(k=%d) differs from Reduce", b.Name, name, cr, k)
				}
				compared++
			}
		}
	}
	if compared == 0 || distinct == compared {
		t.Fatalf("%d partitions over %d distinct prefixes; want some CR values to share a prefix", compared, distinct)
	}
	t.Logf("%d partitions, %d distinct hot prefixes", compared, distinct)
}

// TestPartitionRejectsBadPrefix: a hot prefix outside the weight order,
// or weights for another graph, is an error rather than a panic.
func TestPartitionRejectsBadPrefix(t *testing.T) {
	_, h, sol, _, tp := buildReduced(t, 0.95)
	w := Weigh(h, sol, tp)
	for _, k := range []int{-1, len(w.Order) + 1} {
		if _, err := Partition(h, sol, w, k); err == nil {
			t.Errorf("Partition accepted hot prefix %d of %d nodes", k, len(w.Order))
		}
	}
	if _, err := Partition(h, sol, NewWeights(w.W[1:]), 0); err == nil {
		t.Error("Partition accepted a weight column shorter than the HPG")
	}
}

// TestConcurrentPartitionsShareDecodedBlocks partitions each qualified
// HPG of the named programs at every CR's hot prefix concurrently, from
// a Weights rebuilt by NewWeights as a disk decode rebuilds it, so the
// Partitions race to build the prepared blocks they share. Every result
// must equal the serial Partition of the original weighing.
func TestConcurrentPartitionsShareDecodedBlocks(t *testing.T) {
	ctx := context.Background()
	eng := engine.New(engine.Config{Workers: 1})
	compared := 0
	for _, b := range bench.All() {
		in, err := bench.Load(b, eng)
		if err != nil {
			t.Fatal(err)
		}
		res, err := in.Analyze(ctx, engine.Options{CA: 0.97, CR: 0.95})
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range res.Prog.Order {
			fr := res.Funcs[name]
			if fr.HPG == nil {
				continue
			}
			w := Weigh(fr.HPG, fr.HPGSol, fr.HPGProf)
			decoded := NewWeights(w.W)
			got := make([]*Reduced, 11)
			errs := make([]error, len(got))
			var wg sync.WaitGroup
			for i := range got {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					got[i], errs[i] = Partition(fr.HPG, fr.HPGSol, decoded, HotPrefix(decoded, float64(i)/10))
				}(i)
			}
			wg.Wait()
			for i, red := range got {
				if errs[i] != nil {
					t.Fatalf("%s/%s CR=%.1f: %v", b.Name, name, float64(i)/10, errs[i])
				}
				want, err := Partition(fr.HPG, fr.HPGSol, w, HotPrefix(w, float64(i)/10))
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(red, want) {
					t.Errorf("%s/%s CR=%.1f: concurrent Partition of decoded weights differs", b.Name, name, float64(i)/10)
				}
				compared++
			}
		}
	}
	if compared == 0 {
		t.Fatal("no qualified function")
	}
}
