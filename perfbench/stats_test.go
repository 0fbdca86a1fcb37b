package main

import (
	"math"
	"testing"
)

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(tc.xs); got != tc.want {
			t.Errorf("median(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
}

func TestMedianLeavesInputAlone(t *testing.T) {
	xs := []float64{3, 1, 2}
	median(xs)
	percentile(xs, 50)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatalf("input reordered: %v", xs)
	}
}

// seq returns the values 1 to n, in descending order.
func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i)
	}
	return xs
}

func TestPercentileNearestRank(t *testing.T) {
	for _, tc := range []struct {
		n          int
		q          float64
		want       float64
		wantBeyond int
	}{
		{1000, 99, 990, 10},
		{1000, 50, 500, 500},
		{100, 99, 99, 1},
		{10, 100, 10, 0},
		{1, 99, 1, 0},
	} {
		v, beyond := percentile(seq(tc.n), tc.q)
		if v != tc.want || beyond != tc.wantBeyond {
			t.Errorf("p%v of 1..%d = %v (%d beyond), want %v (%d beyond)", tc.q, tc.n, v, beyond, tc.want, tc.wantBeyond)
		}
	}
	if v, beyond := percentile(nil, 99); v != 0 || beyond != 0 {
		t.Errorf("p99 of nothing = %v, %d", v, beyond)
	}
}

// The tail rule: a percentile is reported only with at least ten
// samples beyond it, so p99 needs 1000 samples.
func TestTailRule(t *testing.T) {
	for _, tc := range []struct {
		n    int
		q    float64
		want bool
	}{
		{1000, 99, true},
		{999, 99, false},
		{100, 99, false},
		{100, 90, true},
		{99, 90, false},
		{20, 50, true},
	} {
		if got := tailOK(tc.n, tc.q); got != tc.want {
			t.Errorf("tailOK(%d, %v) = %v, want %v", tc.n, tc.q, got, tc.want)
		}
		_, beyond := percentile(seq(tc.n), tc.q)
		if got := beyond >= minBeyond; got != tc.want {
			t.Errorf("%d samples leave %d beyond p%v; tailOK says %v", tc.n, beyond, tc.q, tc.want)
		}
	}
}

func TestGeomean(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{2}, 2},
		{[]float64{1, 4}, 2},
		{[]float64{2, 8, 4}, 4},
		{[]float64{2, 0}, 0},
		{[]float64{2, -1}, 0},
	} {
		if got := geomean(tc.xs); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("geomean(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
}
