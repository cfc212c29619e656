package trace_test

import (
	"testing"

	"pathflow/internal/automaton"
	"pathflow/internal/bl"
	"pathflow/internal/cfg"
	"pathflow/internal/constprop"
	"pathflow/internal/interp"
	"pathflow/internal/ir"
	"pathflow/internal/lang"
	"pathflow/internal/profile"
	"pathflow/internal/reduce"
	. "pathflow/internal/trace"
)

// pipelineFixture builds a branchy program with a real profile, for
// benchmarking the tracing stages in isolation.
func pipelineFixture(b *testing.B) (*cfg.Func, *bl.Profile, *automaton.Automaton) {
	b.Helper()
	src := `
func main() {
	n = arg(0);
	i = 0;
	s = 0;
	while (i < n) {
		a = input() % 100;
		if (a < 80) { w = 3; } else { w = (input() % 5) + 1; }
		bq = input() % 100;
		if (bq < 70) { v = 2; } else { v = (input() % 7) + 1; }
		c = input() % 100;
		if (c < 85) { u = 5; } else { u = (input() % 9) + 1; }
		s = s + w*v + u;
		i = i + 1;
	}
	print(s);
}`
	prog, err := lang.Compile(src)
	if err != nil {
		b.Fatal(err)
	}
	vals := make([]ir.Value, 2048)
	x := uint64(5)
	for i := range vals {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		vals[i] = ir.Value(x & 0x7fffffff)
	}
	pp, _, err := bl.ProfileProgram(prog, interp.Options{
		Args:  []ir.Value{400},
		Input: &interp.SliceInput{Values: vals},
	})
	if err != nil {
		b.Fatal(err)
	}
	f := prog.Main()
	pr := pp.Funcs[f.Name]
	hot := profile.SelectHot(pr, f.G, 0.97)
	a, err := automaton.New(f.G, pr.R, hot)
	if err != nil {
		b.Fatal(err)
	}
	return f, pr, a
}

func BenchmarkBuildHPG(b *testing.B) {
	f, _, a := pipelineFixture(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Build(f, a); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAnalyzeHPG(b *testing.B) {
	f, _, a := pipelineFixture(b)
	h, err := Build(f, a)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		constprop.AnalyzeBoxed(h.G, f.NumVars(), true)
	}
}

func BenchmarkReduceHPG(b *testing.B) {
	f, pr, a := pipelineFixture(b)
	h, err := Build(f, a)
	if err != nil {
		b.Fatal(err)
	}
	sol := constprop.AnalyzeBoxed(h.G, f.NumVars(), true)
	tp, err := profile.Translate(pr, f.G, h)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := reduce.Reduce(h, sol, tp, reduce.Options{CR: 0.95}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTranslateProfile(b *testing.B) {
	f, pr, a := pipelineFixture(b)
	h, err := Build(f, a)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := profile.Translate(pr, f.G, h); err != nil {
			b.Fatal(err)
		}
	}
}
