package main

import (
	"errors"
	"testing"
)

func seq(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(n - i) // unsorted on purpose
	}
	return out
}

// TestTailPicksHighestPercentileWithTenBeyond: the tail percentile is the
// highest of the ladder that leaves at least ten samples above it, and
// the sample counts are reported with it.
func TestTailPicksHighestPercentileWithTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n          int
		wantP      float64
		wantValue  float64
		wantBeyond int
	}{
		{9, 50, 5, 4},       // too few for anything past the median
		{99, 50, 50, 49},    // p90 would leave only 9 beyond
		{100, 90, 90, 10},   // exactly ten beyond p90
		{999, 90, 900, 99},  // p99 would leave 9
		{1000, 99, 990, 10}, // exactly ten beyond p99
		{10000, 99.9, 9990, 10},
	} {
		got := tail(seq(c.n))
		if got.P != c.wantP || got.Value != c.wantValue || got.Beyond != c.wantBeyond || got.N != c.n {
			t.Errorf("n=%d: got %+v, want p%g = %g with %d beyond of %d", c.n, got, c.wantP, c.wantValue, c.wantBeyond, c.n)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	s := seq(10)
	if p := percentile(s, 50); p.Value != 5 || p.Beyond != 5 {
		t.Errorf("p50 of 1..10 = %+v, want 5 with 5 beyond", p)
	}
	if p := percentile(s, 90); p.Value != 9 || p.Beyond != 1 {
		t.Errorf("p90 of 1..10 = %+v, want 9 with 1 beyond", p)
	}
	if p := percentile(nil, 50); p.N != 0 || p.Value != 0 {
		t.Errorf("p50 of nothing = %+v", p)
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("median = %g, want 2.5", m)
	}
}

// TestTallyCountsRefusedAndWrong: failed_frac counts both operations the
// program refused and completed operations whose output was wrong.
func TestTallyCountsRefusedAndWrong(t *testing.T) {
	var tl tally
	for i := 0; i < 6; i++ {
		tl.ok()
	}
	tl.refused("analyze x", errors.New("HTTP 500"))
	tl.wrong("analyze y: reply differs")
	if tl.attempted != 7 || tl.failed != 2 {
		t.Fatalf("attempted %d failed %d, want 7 and 2", tl.attempted, tl.failed)
	}
	if got, want := tl.failedFrac(), 2.0/7; got != want {
		t.Errorf("failedFrac = %g, want %g", got, want)
	}
	if len(tl.errs) != 2 {
		t.Errorf("errs = %q", tl.errs)
	}
	var empty tally
	if empty.failedFrac() != 1 {
		t.Error("a run that attempted nothing must not read as clean")
	}
}
