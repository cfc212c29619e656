package intervals_test

import (
	"testing"
	"testing/quick"

	"pathflow/internal/cfg"
	"pathflow/internal/interp"
	. "pathflow/internal/intervals"
	"pathflow/internal/ir"
	"pathflow/internal/lang"
)

func TestIntervalBasics(t *testing.T) {
	if !EmptyI().IsEmpty() || Full().IsEmpty() {
		t.Fatal("empty/full broken")
	}
	if k, ok := ConstI(7).IsConst(); !ok || k != 7 {
		t.Fatal("ConstI broken")
	}
	if !Range(1, 5).Contains(3) || Range(1, 5).Contains(0) {
		t.Fatal("Contains broken")
	}
	if Full().Bounded() || !Range(-2, 9).Bounded() {
		t.Fatal("Bounded broken")
	}
	if Range(1, 5).Width() != 5 {
		t.Fatalf("Width = %d", Range(1, 5).Width())
	}
	if ConstI(3).String() != "[3,3]" || Full().String() != "[-∞,+∞]" || EmptyI().String() != "⊤" {
		t.Fatal("String broken")
	}
}

func TestMeetAndIntersect(t *testing.T) {
	a, b := Range(0, 5), Range(3, 9)
	if m := a.Meet(b); m != Range(0, 9) {
		t.Errorf("Meet = %v", m)
	}
	if x := a.Intersect(b); x != Range(3, 5) {
		t.Errorf("Intersect = %v", x)
	}
	if x := Range(0, 2).Intersect(Range(5, 9)); !x.IsEmpty() {
		t.Errorf("disjoint Intersect = %v", x)
	}
	if m := EmptyI().Meet(a); m != a {
		t.Errorf("⊤ not identity: %v", m)
	}
}

func TestWidenStabilizes(t *testing.T) {
	cur := ConstI(0)
	for i := int64(1); i <= 100; i++ {
		next := cur.Widen(cur.Meet(ConstI(i)))
		if next == cur && i > 1 {
			// stabilized
			if cur.Hi != PosInf {
				t.Fatalf("stabilized at %v without widening", cur)
			}
			return
		}
		cur = next
	}
	t.Fatalf("widening did not stabilize: %v", cur)
}

// TestEvalBinSound samples concrete values and checks interval soundness
// with testing/quick.
func TestEvalBinSound(t *testing.T) {
	ops := []ir.Op{ir.Add, ir.Sub, ir.Mul, ir.Div, ir.Mod, ir.Eq, ir.Ne,
		ir.Lt, ir.Le, ir.Gt, ir.Ge, ir.And, ir.Or, ir.Xor, ir.Shl, ir.Shr}
	f := func(a1, a2, b1, b2 int32, opIdx uint8) bool {
		op := ops[int(opIdx)%len(ops)]
		alo, ahi := int64(a1), int64(a2)
		if alo > ahi {
			alo, ahi = ahi, alo
		}
		blo, bhi := int64(b1), int64(b2)
		if blo > bhi {
			blo, bhi = bhi, blo
		}
		ia, ib := Range(alo, ahi), Range(blo, bhi)
		abs := EvalBin(op, ia, ib)
		// Sample endpoints and midpoints.
		for _, x := range []int64{alo, ahi, (alo + ahi) / 2} {
			for _, y := range []int64{blo, bhi, (blo + bhi) / 2} {
				if !abs.Contains(ir.EvalBin(op, x, y)) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 4000}); err != nil {
		t.Error(err)
	}
}

func TestEvalUnSound(t *testing.T) {
	for _, op := range []ir.Op{ir.Copy, ir.Neg, ir.Not} {
		iv := Range(-3, 8)
		abs := EvalUn(op, iv)
		for v := int64(-3); v <= 8; v++ {
			if !abs.Contains(ir.EvalUn(op, v)) {
				t.Errorf("%v(%d) outside %v", op, v, abs)
			}
		}
	}
}

func TestDivisionCases(t *testing.T) {
	cases := []struct {
		a, b Interval
		want func(Interval) bool
	}{
		{Range(10, 20), ConstI(2), func(r Interval) bool { return r == Range(5, 10) }},
		{Range(10, 20), ConstI(0), func(r Interval) bool { return r == ConstI(0) }}, // defined x/0 = 0
		{Range(10, 20), Range(-2, 2), func(r Interval) bool {
			return r.Contains(0) && r.Contains(-10) && r.Contains(10) && r.Contains(-5) && r.Contains(5)
		}},
		{ConstI(7), Range(1, PosInf), func(r Interval) bool { return r.Contains(0) && r.Contains(7) }},
	}
	for _, tc := range cases {
		got := tc.a.Div(tc.b)
		if !tc.want(got) {
			t.Errorf("%v / %v = %v", tc.a, tc.b, got)
		}
	}
}

func TestModCases(t *testing.T) {
	if got := Range(0, 100).Mod(ConstI(8)); got != Range(0, 7) {
		t.Errorf("[0,100] %% 8 = %v", got)
	}
	if got := ConstI(5).Mod(ConstI(8)); !got.Contains(5) {
		t.Errorf("5 %% 8 = %v must contain 5", got)
	}
	if got := Range(-10, -1).Mod(ConstI(4)); !got.Contains(-3) || got.Contains(4) || got.Hi != 0 {
		t.Errorf("[-10,-1] %% 4 = %v", got)
	}
}

func analyzeSrc(t *testing.T, src string) (*cfg.Func, *Result) {
	t.Helper()
	p, err := lang.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	f := p.Main()
	return f, AnalyzeBoxed(f.G, f.NumVars(), true)
}

func varIdx(t *testing.T, f *cfg.Func, name string) ir.Var {
	t.Helper()
	for i, n := range f.VarNames {
		if n == name {
			return ir.Var(i)
		}
	}
	t.Fatalf("no var %s", name)
	return ir.NoVar
}

// TestLoopBoundsViaRefinement: the canonical payoff — inside
// `while (i < 10)` the analysis knows i ∈ [0,9] (via widening and
// comparison refinement), and after the loop i ≥ 10.
func TestLoopBoundsViaRefinement(t *testing.T) {
	f, r := analyzeSrc(t, `
func main() {
	i = 0;
	inside = 0;
	while (i < 10) {
		inside = i;
		i = i + 1;
	}
	print(i + inside);
}`)
	iv := varIdx(t, f, "i")
	// At exit, i ≥ 10.
	exitEnv := r.EnvAt(f.G.Exit)
	if exitEnv[iv].Lo < 10 {
		t.Errorf("i at exit = %v, want Lo >= 10", exitEnv[iv])
	}
	// Find the loop body (the block assigning `inside`) and check i's
	// range there.
	for _, nd := range f.G.Nodes {
		for idx := range nd.Instrs {
			in := &nd.Instrs[idx]
			if in.Op == ir.Copy && in.Dst == varIdx(t, f, "inside") {
				env := r.EnvAt(nd.ID)
				if env[iv].Lo != 0 || env[iv].Hi != 9 {
					t.Errorf("i in loop body = %v, want [0,9]", env[iv])
				}
			}
		}
	}
}

func TestModBoundsInLoop(t *testing.T) {
	f, r := analyzeSrc(t, `
func main() {
	i = 0;
	h = 0;
	while (i < 1000) {
		h = (h * 31 + i) % 127;
		i = i + 1;
	}
	print(h);
}`)
	h := varIdx(t, f, "h")
	env := r.EnvAt(f.G.Exit)
	if env[h].Lo < 0 || env[h].Hi > 126 {
		t.Errorf("h at exit = %v, want within [0,126]", env[h])
	}
}

func TestBranchEqualityRefinement(t *testing.T) {
	f, r := analyzeSrc(t, `
func main() {
	x = input() % 100;
	y = 0;
	if (x == 42) {
		y = x;    // here x is exactly 42
	}
	print(y + x);
}`)
	y := varIdx(t, f, "y")
	env := r.EnvAt(f.G.Exit)
	// y is 0 or 42.
	if !env[y].Contains(0) || !env[y].Contains(42) || env[y].Lo < 0 || env[y].Hi > 42 {
		t.Errorf("y at exit = %v, want within [0,42] containing both", env[y])
	}
}

func TestConstantBranchPruned(t *testing.T) {
	f, r := analyzeSrc(t, `
func main() {
	c = 5;
	if (c < 3) { x = 1; } else { x = 2; }
	print(x);
}`)
	x := varIdx(t, f, "x")
	if got := r.EnvAt(f.G.Exit)[x]; got != ConstI(2) {
		t.Errorf("x = %v, want [2,2]", got)
	}
}

// TestIntervalsSoundOnExecution checks every range claim against live
// registers.
func TestIntervalsSoundOnExecution(t *testing.T) {
	src := `
func main() {
	i = 0;
	acc = 0;
	while (i < 200) {
		v = input() % 50;
		if (v > 25) { acc = acc + v; } else { acc = acc - 1; }
		if (acc > 10000) { acc = acc % 997; }
		i = i + 1;
	}
	print(acc);
}`
	prog, err := lang.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	fn := prog.Main()
	sol := AnalyzeBoxed(fn.G, fn.NumVars(), true)
	vals := make([]ir.Value, 512)
	x := uint64(99)
	for i := range vals {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		vals[i] = ir.Value(x & 0x7fffffff)
	}
	var bad string
	_, err = interp.Run(prog, interp.Options{
		Input: &interp.SliceInput{Values: vals},
		OnBlockEnv: func(f *cfg.Func, n cfg.NodeID, regs []ir.Value) {
			if bad != "" {
				return
			}
			env := sol.EnvAt(n)
			for v := range env {
				if !env[v].IsEmpty() && !env[v].Contains(regs[v]) {
					bad = f.VarName(ir.Var(v)) + "=" + env[v].String()
				}
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if bad != "" {
		t.Fatalf("unsound interval claim: %s", bad)
	}
}

func TestBoundedCount(t *testing.T) {
	f, r := analyzeSrc(t, `
func main() {
	a = input() % 16;  // [0,15]
	b = input();       // unbounded
	c = a * 2;         // [0,30]
	print(c + b);
}`)
	static, _ := BoundedCount(f.G, r, nil)
	if static < 3 {
		t.Errorf("bounded static = %d, want >= 3", static)
	}
}
