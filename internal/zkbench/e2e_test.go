package main

// The end-to-end records must measure real cached-setup proofs, a cold
// start and a verification, and the suite must be exactly the records
// CI's gates compare.

import (
	"os"
	"regexp"
	"testing"
)

func TestE2EBenchmarkRecords(t *testing.T) {
	r := runner{Warmup: 1, Reps: 2}
	recs, err := r.run(e2eSuite(6, 3))
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"e2e/prove/mu6", "e2e/setup/mu6", "e2e/verify/mu6"}
	if len(recs) != len(want) {
		t.Fatalf("want %v, got %d records", want, len(recs))
	}
	for i, rec := range recs {
		if rec.Name != want[i] || rec.Reps != 2 || rec.Median <= 0 {
			t.Errorf("record %d: %+v, want %s over 2 reps with a positive median", i, rec, want[i])
		}
	}
}

// TestSuiteIsTheGates reads the -assert-faster expressions of CI's
// bench-gate job and holds the production suite to exactly the records
// they name: a record no gate reads is measured for nothing, and a gate
// naming an unregistered record fails only when CI runs it.
func TestSuiteIsTheGates(t *testing.T) {
	ci, err := os.ReadFile("../../.github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	var gates assertList
	for _, m := range regexp.MustCompile(`-assert-faster '([^']*)'`).FindAllStringSubmatch(string(ci), -1) {
		if err := gates.Set(m[1]); err != nil {
			t.Fatal(err)
		}
	}
	if len(gates) == 0 {
		t.Fatal("no -assert-faster expression in ci.yml")
	}
	gated := map[string]bool{}
	for _, g := range gates {
		gated[g.left], gated[g.right] = true, true
	}
	registered := map[string]bool{}
	for _, g := range suite(gateSizes, 1) {
		for _, bm := range g {
			if registered[bm.Name] {
				t.Errorf("duplicate record name %q", bm.Name)
			}
			registered[bm.Name] = true
			if !gated[bm.Name] {
				t.Errorf("record %q is read by no gate", bm.Name)
			}
		}
	}
	for name := range gated {
		if !registered[name] {
			t.Errorf("a gate names %q, which is not a registered record", name)
		}
	}
}
