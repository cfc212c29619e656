package lang

import (
	"strings"
	"testing"

	"pathflow/internal/cfg"
	"pathflow/internal/ir"
)

func compile(t *testing.T, src string) *cfg.Program {
	t.Helper()
	p, err := Compile(src)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	for _, name := range p.Order {
		f := p.Funcs[name]
		if err := f.G.Validate(f.NumVars()); err != nil {
			t.Fatalf("Validate(%s): %v", name, err)
		}
	}
	return p
}

func TestCompileMinimal(t *testing.T) {
	p := compile(t, `func main() { x = 1; print(x); }`)
	f := p.Main()
	if f == nil || f.Name != "main" {
		t.Fatalf("Main() = %v, want main", f)
	}
	if got := f.G.NumNodes(); got < 3 {
		t.Errorf("NumNodes = %d, want >= 3 (entry, body, exit)", got)
	}
}

func TestCompileIfElse(t *testing.T) {
	p := compile(t, `
func main() {
	x = input();
	if (x > 0) { y = 1; } else { y = 2; }
	print(y);
}`)
	g := p.Main().G
	branches := 0
	for _, n := range g.Nodes {
		if n.Kind == cfg.TermBranch {
			branches++
		}
	}
	if branches != 1 {
		t.Errorf("branch nodes = %d, want 1", branches)
	}
}

func TestCompileWhileHasRetreatingEdge(t *testing.T) {
	p := compile(t, `
func main() {
	i = 0;
	while (i < 10) { i = i + 1; }
	print(i);
}`)
	g := p.Main().G
	n := 0
	for _, r := range g.DepthFirst().Retreating {
		if r {
			n++
		}
	}
	if n != 1 {
		t.Fatalf("retreating edges = %d, want 1", n)
	}
	if !g.Reducible() {
		t.Error("loop CFG should be reducible")
	}
}

func TestCompileElseIfChain(t *testing.T) {
	compile(t, `
func main() {
	x = input();
	if (x == 1) { y = 1; }
	else if (x == 2) { y = 2; }
	else { y = 3; }
	print(y);
}`)
}

func TestCompileShortCircuit(t *testing.T) {
	p := compile(t, `
func main() {
	a = input();
	b = input();
	if (a > 0 && b > 0) { print(1); }
	if (a > 0 || b > 0) { print(2); }
}`)
	g := p.Main().G
	branches := 0
	for _, n := range g.Nodes {
		if n.Kind == cfg.TermBranch {
			branches++
		}
	}
	// each && / || adds one extra branch beyond its if
	if branches != 4 {
		t.Errorf("branch nodes = %d, want 4", branches)
	}
}

func TestCompileCalls(t *testing.T) {
	p := compile(t, `
func helper(a, b) { return a + b; }
func main() { x = helper(1, 2); print(x); }`)
	if len(p.Order) != 2 {
		t.Fatalf("functions = %d, want 2", len(p.Order))
	}
	if got := p.Funcs["helper"]; len(got.Params) != 2 {
		t.Errorf("helper params = %d, want 2", len(got.Params))
	}
}

func TestCompileBreakContinue(t *testing.T) {
	compile(t, `
func main() {
	i = 0;
	while (1) {
		i = i + 1;
		if (i % 2 == 0) { continue; }
		if (i > 10) { break; }
	}
	print(i);
}`)
}

func TestCompileErrors(t *testing.T) {
	cases := []struct {
		name, src, want string
	}{
		{"undefined var", `func main() { print(x); }`, "undefined variable"},
		{"undefined func", `func main() { x = f(); print(x); }`, "undefined function"},
		{"arity", `func f(a) { return a; } func main() { x = f(); print(x); }`, "takes 1 arguments"},
		{"break outside", `func main() { break; }`, "break outside loop"},
		{"continue outside", `func main() { continue; }`, "continue outside loop"},
		{"dup func", `func f() {} func f() {}`, "duplicate function"},
		{"dup param", `func f(a, a) {} func main() {}`, "duplicate parameter"},
		{"syntax", `func main() { x = ; }`, "unexpected"},
		{"unterminated", `func main() { x = 1;`, "unterminated block"},
		{"bad char", `func main() { x = #; }`, "unexpected character"},
		{"stmt call only", `func main() { 1 + 2; }`, "unexpected"},
		{"empty", ``, "empty program"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Compile(tc.src)
			if err == nil {
				t.Fatalf("Compile succeeded, want error containing %q", tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not contain %q", err, tc.want)
			}
		})
	}
}

func TestCompileComments(t *testing.T) {
	compile(t, `
// line comment
func main() {
	/* block
	   comment */
	x = 1; // trailing
	print(x);
}`)
}

func TestLowerConstOnlyThroughConstInstr(t *testing.T) {
	// The paper's taxonomy relies on constants entering only via Const.
	p := compile(t, `func main() { x = 1 + 2; print(x); }`)
	g := p.Main().G
	consts, adds := 0, 0
	for _, n := range g.Nodes {
		for _, in := range n.Instrs {
			switch in.Op {
			case ir.Const:
				consts++
			case ir.Add:
				adds++
			}
		}
	}
	if consts != 2 || adds != 1 {
		t.Errorf("consts=%d adds=%d, want 2 and 1", consts, adds)
	}
}

func TestVarSugar(t *testing.T) {
	compile(t, `func main() { var x = 3; print(x); }`)
}

func TestMustCompile(t *testing.T) {
	p := MustCompile(`func main() { print(1); }`)
	if p.Main() == nil {
		t.Fatal("MustCompile returned empty program")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustCompile did not panic on bad source")
		}
	}()
	MustCompile(`func main() {`)
}

func TestDeadCodeAfterReturn(t *testing.T) {
	// Statements after a return land in an unreachable block that must
	// still validate (the lowering's dangling-block pass).
	p := compile(t, `
func main() {
	return;
	x = 1;
	print(x);
}`)
	g := p.Main().G
	dfs := g.DepthFirst()
	unreachable := 0
	for _, nd := range g.Nodes {
		if !dfs.Reachable(nd.ID) {
			unreachable++
		}
	}
	if unreachable == 0 {
		t.Error("expected an unreachable block for dead code")
	}
}

func TestDeadJoinAfterBothArmsReturn(t *testing.T) {
	compile(t, `
func main() {
	x = input();
	if (x > 0) { return 1; } else { return 2; }
}`)
}

func TestNestedLoopsAndBreakTargets(t *testing.T) {
	p := compile(t, `
func main() {
	i = 0;
	total = 0;
	while (i < 5) {
		j = 0;
		while (j < 5) {
			if (j == 3) { break; }
			if (j == 1) { j = j + 2; continue; }
			total = total + 1;
			j = j + 1;
		}
		i = i + 1;
	}
	print(total);
}`)
	if got := len(p.Main().G.NaturalLoops()); got != 2 {
		t.Errorf("loops = %d, want 2", got)
	}
}

func TestUnterminatedBlockComment(t *testing.T) {
	_, err := Compile("func main() { /* never closed")
	if err == nil || !strings.Contains(err.Error(), "unterminated block comment") {
		t.Errorf("err = %v", err)
	}
}

func TestHugeIntLiteralRejected(t *testing.T) {
	_, err := Compile(`func main() { x = 99999999999999999999; print(x); }`)
	if err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Errorf("err = %v", err)
	}
}

func TestOperatorPrecedenceLowering(t *testing.T) {
	// Spot-check precedence through the full compile+shape: shifts bind
	// tighter than +, comparisons looser than arithmetic.
	p := compile(t, `func main() { x = 1 + 2 * 3; y = 1 << 2 + 1; z = x < y == 1; print(z); }`)
	if p.Main().G.NumInstrs() == 0 {
		t.Fatal("no instructions")
	}
}
