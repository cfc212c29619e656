package intervals_test

import (
	"testing"

	. "pathflow/internal/intervals"
	"pathflow/internal/lang"
)

func TestClampRoundsOutward(t *testing.T) {
	thr := []int64{NegInf, -1, 0, 1, 4, 5, 6, PosInf}
	cases := []struct {
		in, want Interval
	}{
		{Range(2, 3), Range(1, 4)}, // both bounds off-threshold
		{ConstI(5), ConstI(5)},     // already a threshold: unchanged
		{Range(0, 100), Range(0, PosInf)},
		{Range(-50, -2), Range(NegInf, -1)},
		{Full(), Full()},
		{EmptyI(), EmptyI()},
	}
	for _, tc := range cases {
		if got := Clamp(tc.in, thr); got != tc.want {
			t.Errorf("Clamp(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

func TestThresholdsCoverLiterals(t *testing.T) {
	p, err := lang.Compile(`
func main() {
	x = 7;
	print(x);
}`)
	if err != nil {
		t.Fatal(err)
	}
	thr := Thresholds(p.Main().G)
	want := map[int64]bool{NegInf: false, PosInf: false, 0: false, 6: false, 7: false, 8: false}
	for _, k := range thr {
		if _, ok := want[k]; ok {
			want[k] = true
		}
	}
	for k, seen := range want {
		if !seen {
			t.Errorf("Thresholds missing %d", k)
		}
	}
	for i := 1; i < len(thr); i++ {
		if thr[i-1] >= thr[i] {
			t.Fatalf("thresholds not strictly sorted at %d: %v", i, thr)
		}
	}
}

// TestClampedLoopTerminatesAndBounds: the clamped analysis converges on
// a counting loop with no widening at all, and the loop literal's
// thresholds let it keep the same tight body range the widened analysis
// recovers via narrowing.
func TestClampedLoopTerminatesAndBounds(t *testing.T) {
	p, err := lang.Compile(`
func main() {
	i = 0;
	inside = 0;
	while (i < 10) {
		inside = i;
		i = i + 1;
	}
	print(i + inside);
}`)
	if err != nil {
		t.Fatal(err)
	}
	f := p.Main()
	thr := Thresholds(f.G)
	r := AnalyzeClampedMasked(f.G, f.NumVars(), thr, true, nil)
	iv := varIdx(t, f, "i")
	exitEnv := r.EnvAt(f.G.Exit)
	if exitEnv[iv].Lo < 10 {
		t.Errorf("i at exit = %v, want Lo >= 10", exitEnv[iv])
	}
}

// TestClampedAtMostAsPreciseAsThresholds: every clamped fact's bounds
// are members of the threshold set (the finite-lattice property the
// oracle's termination and monotonicity arguments rest on).
func TestClampedFactsStayOnThresholds(t *testing.T) {
	p, err := lang.Compile(`
func main() {
	n = arg(0);
	i = 0;
	s = 3;
	while (i < n) {
		s = s * 2 + 1;
		i = i + 1;
	}
	print(s);
}`)
	if err != nil {
		t.Fatal(err)
	}
	f := p.Main()
	thr := Thresholds(f.G)
	onThr := func(k int64) bool {
		for _, v := range thr {
			if v == k {
				return true
			}
		}
		return false
	}
	r := AnalyzeClampedMasked(f.G, f.NumVars(), thr, true, nil)
	for _, nd := range f.G.Nodes {
		if !r.Reached(nd.ID) {
			continue
		}
		for v, iv := range r.EnvAt(nd.ID) {
			if iv.IsEmpty() {
				continue
			}
			if !onThr(iv.Lo) || !onThr(iv.Hi) {
				t.Fatalf("node %d var %d: fact %v off the threshold set", nd.ID, v, iv)
			}
		}
	}
}
