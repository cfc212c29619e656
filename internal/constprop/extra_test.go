package constprop_test

import (
	"testing"

	. "pathflow/internal/constprop"
	"pathflow/internal/dataflow"
	"pathflow/internal/lang"
)

func TestValueString(t *testing.T) {
	if (Value{Kind: Top}).String() != "⊤" {
		t.Error("⊤ string")
	}
	if (Value{Kind: Bottom}).String() != "⊥" {
		t.Error("⊥ string")
	}
	if ConstOf(-3).String() != "-3" {
		t.Error("const string")
	}
}

func TestEnvEqualLengths(t *testing.T) {
	a := NewEnv(2, Bottom)
	b := NewEnv(3, Bottom)
	if a.Equal(b) {
		t.Error("different lengths compared equal")
	}
	c := NewEnv(2, Bottom)
	c[0] = ConstOf(1)
	d := NewEnv(2, Bottom)
	d[0] = ConstOf(2)
	if c.Equal(d) {
		t.Error("different constants compared equal")
	}
	d[0] = ConstOf(1)
	if !c.Equal(d) {
		t.Error("equal envs compared unequal")
	}
}

func TestConstFlagsDirect(t *testing.T) {
	p, err := lang.Compile(`
func main() {
	k = 7;
	i = 0;
	while (i < 3) {
		d = k * 2;        // non-local constant (k crosses the block)
		lit = 5;          // local constant
		u = input() + d;  // not constant
		i = i + 1;
		print(u + lit);
	}
}`)
	if err != nil {
		t.Fatal(err)
	}
	f := p.Main()
	r := AnalyzeBoxed(f.G, f.NumVars(), true)
	foundNonlocal, foundLocalExcluded := false, false
	for _, nd := range f.G.Nodes {
		all := ConstFlags(f.G, nd.ID, r.EnvAt(nd.ID), f.NumVars(), false)
		nonlocal := ConstFlags(f.G, nd.ID, r.EnvAt(nd.ID), f.NumVars(), true)
		for i := range nd.Instrs {
			if nonlocal[i] && !all[i] {
				t.Fatal("nonlocal flags must be a subset of all flags")
			}
			if nonlocal[i] {
				foundNonlocal = true
			}
			if all[i] && !nonlocal[i] {
				foundLocalExcluded = true
			}
		}
	}
	if !foundNonlocal {
		t.Error("no non-local constant found")
	}
	if !foundLocalExcluded {
		t.Error("no local constant was excluded")
	}
}

func TestProblemEntryOverride(t *testing.T) {
	env := NewEnv(3, Bottom)
	env[1] = ConstOf(9)
	p := &Problem{NumVars: 3, Conditional: true, EntryEnv: env}
	got := p.Entry().(Env)
	if got[1] != ConstOf(9) {
		t.Errorf("entry env override ignored: %v", got[1])
	}
	// The returned fact is a clone: mutating it must not affect the
	// problem's template.
	got[1] = ConstOf(1)
	if env[1] != ConstOf(9) {
		t.Error("Entry returned the template without cloning")
	}
	var _ dataflow.Fact = got
}

func TestResultEnvAtUnreachedWithNoReachedNodes(t *testing.T) {
	// EnvAt on a Result whose graph has unreached nodes must synthesize
	// an all-⊤ env of the right size by inspecting any reached fact.
	p, err := lang.Compile(`
func main() {
	c = 0;
	if (c != 0) { x = 5; print(x); }
	print(c);
}`)
	if err != nil {
		t.Fatal(err)
	}
	f := p.Main()
	r := AnalyzeBoxed(f.G, f.NumVars(), true)
	for _, nd := range f.G.Nodes {
		env := r.EnvAt(nd.ID)
		if len(env) != f.NumVars() {
			t.Fatalf("EnvAt(%d) has %d vars, want %d", nd.ID, len(env), f.NumVars())
		}
	}
}
