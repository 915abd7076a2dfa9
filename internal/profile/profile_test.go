package profile

import (
	"strings"
	"testing"
)

// paperTable1 lists the paper's measured values (modmuls in millions) for
// cross-checking the model's shape.
var paperTable1 = map[string]float64{
	"Poly Open MSMs":     1160,
	"Wire Identity MSMs": 2290,
	"Witness MSMs":       1370,
	"Batch Evaluations":  23.1,
	"ZeroCheck Rounds":   77.6,
	"Fraction MLE":       5.19,
	"PermCheck Rounds":   94.4,
	"Linear Combine":     18.9,
	"OpenCheck Rounds":   31.5,
	"Construct N & D":    10.5,
	"Product MLE":        1.05,
	"All MLE Updates":    33.6,
}

func rowsByName(rows []Row) map[string]Row {
	m := make(map[string]Row, len(rows))
	for _, r := range rows {
		m[r.Name] = r
	}
	return m
}

func TestTable1ModmulsWithinFactorOfPaper(t *testing.T) {
	rows := rowsByName(Table1(20))
	if len(rows) != 12 {
		t.Fatalf("expected 12 kernels, got %d", len(rows))
	}
	for name, want := range paperTable1 {
		r, ok := rows[name]
		if !ok {
			t.Fatalf("missing kernel %q", name)
		}
		ratio := r.ModmulsM / want
		if ratio < 0.5 || ratio > 2.0 {
			t.Errorf("%s: model %.1fM vs paper %.1fM (ratio %.2f)", name, r.ModmulsM, want, ratio)
		}
	}
}

func TestTable1SumcheckCountsExact(t *testing.T) {
	// The sumcheck-family rows are derived exactly from Eqs. 3-5 and must
	// match the paper to within rounding.
	rows := rowsByName(Table1(20))
	exact := map[string]float64{
		"ZeroCheck Rounds":  77.6,
		"PermCheck Rounds":  94.4,
		"OpenCheck Rounds":  31.5,
		"Construct N & D":   10.5,
		"Product MLE":       1.05,
		"Batch Evaluations": 23.1,
		"All MLE Updates":   33.6,
	}
	for name, want := range exact {
		got := rows[name].ModmulsM
		if got < want*0.97 || got > want*1.03 {
			t.Errorf("%s: %.2fM, paper %.2fM", name, got, want)
		}
	}
}

func TestTable1RankingMSMsOnTop(t *testing.T) {
	rows := Table1(20)
	// The top three kernels by arithmetic intensity must be the MSMs, and
	// the bottom must be MLE Updates — the motivation for the paper's
	// compute vs. bandwidth split.
	top := map[string]bool{
		rows[0].Name: true, rows[1].Name: true, rows[2].Name: true,
	}
	for _, k := range []string{"Poly Open MSMs", "Wire Identity MSMs", "Witness MSMs"} {
		if !top[k] {
			t.Fatalf("%s not among top-3 arithmetic intensity", k)
		}
	}
	if rows[len(rows)-1].Name != "All MLE Updates" {
		t.Fatalf("lowest-intensity kernel = %s, want All MLE Updates", rows[len(rows)-1].Name)
	}
	// Intensity gap between MSMs and everything else is order-of-magnitude
	// (paper: 7.8-8.7 vs <0.3).
	if rows[2].Intensity < 10*rows[3].Intensity {
		t.Fatal("compute-intensity cliff after the MSMs missing")
	}
}

func TestTable1Scaling(t *testing.T) {
	// Modmul counts are O(n): doubling μ doubles every row.
	r20 := rowsByName(Table1(20))
	r21 := rowsByName(Table1(21))
	for name, r := range r20 {
		ratio := r21[name].ModmulsM / r.ModmulsM
		if ratio < 1.99 || ratio > 2.01 {
			t.Errorf("%s: scaling ratio %.3f, want 2.0", name, ratio)
		}
	}
}

func TestFormat(t *testing.T) {
	out := Format(Table1(20))
	if !strings.Contains(out, "Poly Open MSMs") || !strings.Contains(out, "Kernel") {
		t.Fatal("format output incomplete")
	}
	if strings.Count(out, "\n") != 13 {
		t.Fatalf("expected 13 lines, got %d", strings.Count(out, "\n"))
	}
}
