package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"pathflow/internal/bench"
)

// TestEngineHints is the ci.sh lint gate: every option name the engine's
// parsers accept must appear in the hint the CLI and serving layer quote
// for the matching Unknown*Error.
func TestEngineHints(t *testing.T) {
	problems, err := Hints(filepath.Join("..", "engine"))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range problems {
		t.Error(p)
	}
}

// TestBenchmarkHint covers the registry-derived hint the AST check
// exempts: bench.UnknownBenchmarkError builds its list from All() at
// runtime, so drift there would mean the derivation broke.
func TestBenchmarkHint(t *testing.T) {
	hint := (&bench.UnknownBenchmarkError{Name: "nope"}).Hint()
	for _, b := range bench.All() {
		if !strings.Contains(hint, b.Name) {
			t.Errorf("benchmark %q missing from UnknownBenchmarkError.Hint() (%q)", b.Name, hint)
		}
	}
}

// TestHintsCatchesDrift feeds Hints a synthetic package whose hint
// omits an accepted name, proving the linter actually fires.
func TestHintsCatchesDrift(t *testing.T) {
	dir := t.TempDir()
	src := `package fake

type UnknownKernelError struct{ Name string }

func (e *UnknownKernelError) Hint() string {
	return "valid kernels: packed, boxed"
}

type UnknownClientError struct{ Name string }

func (e *UnknownClientError) Hint() string {
	return "valid clients: none, liveness, availexpr, all"
}

func ParseKernel(s string) int {
	switch s {
	case "", "packed":
		return 0
	case "boxed":
		return 1
	case "sparse": // missing from the hint above
		return 2
	}
	return -1
}

func ParseClients(s string) int {
	switch s {
	case "none", "liveness", "availexpr", "all":
		return 1
	}
	return -1
}
`
	if err := os.WriteFile(filepath.Join(dir, "fake.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	problems, err := Hints(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(problems) != 1 || !strings.Contains(problems[0], `"sparse"`) {
		t.Fatalf("want exactly one problem naming \"sparse\", got %v", problems)
	}
}

// boxedOwners are the packages allowed to reach the boxed reference
// solvers in non-test code: the engine, the one place that branches on
// Options.Kernel, and the four client packages that define them.
var boxedOwners = map[string]bool{
	"internal/engine":    true,
	"internal/constprop": true,
	"internal/intervals": true,
	"internal/liveness":  true,
	"internal/availexpr": true,
}

// boxedRefs returns file:line for every reference to AnalyzeBoxed,
// AnalyzeBoxedMasked or dataflow.KernelBoxed in the non-test Go files
// under root that sit outside boxedOwners.
func boxedRefs(root string) ([]string, error) {
	var refs []string
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		if d.IsDir() {
			if name := d.Name(); path != root && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") || boxedOwners[filepath.ToSlash(filepath.Dir(rel))] {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			x, _ := sel.X.(*ast.Ident)
			switch {
			case sel.Sel.Name == "AnalyzeBoxed", sel.Sel.Name == "AnalyzeBoxedMasked",
				sel.Sel.Name == "KernelBoxed" && x != nil && x.Name == "dataflow":
				p := fset.Position(sel.Pos())
				refs = append(refs, filepath.ToSlash(rel)+":"+strconv.Itoa(p.Line))
			}
			return true
		})
		return nil
	})
	return refs, err
}

// TestBoxedSolversConfined keeps the boxed reference solvers off every
// production path: outside the engine's kernel dispatch and the client
// packages, non-test code solves on the packed kernels only.
func TestBoxedSolversConfined(t *testing.T) {
	refs, err := boxedRefs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range refs {
		t.Errorf("%s: boxed reference solver used outside internal/engine and the client packages", r)
	}
}
