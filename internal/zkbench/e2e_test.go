package main

// The end-to-end suite must measure real cached-setup proofs and
// decompose them into per-step kernel shares, and the suite must satisfy
// the coverage contract the CI gate relies on (kernels + ≥2 e2e sizes in
// quick mode).

import (
	"strings"
	"testing"
)

func TestE2EBenchmarkRecordsStepShares(t *testing.T) {
	cfg := defaultConfig(true)
	cfg.E2EMus = []int{6}
	cfg.Seed = 3
	bms := e2eSuite(cfg)
	if len(bms) != 3 {
		t.Fatalf("want a prove, a setup and a verify benchmark, got %d", len(bms))
	}
	r := runner{Warmup: 1, Reps: 2}
	cold, err := r.run(bms[1])
	if err != nil {
		t.Fatal(err)
	}
	if cold.Name != "e2e/setup/mu6" || cold.Median <= 0 {
		t.Fatalf("cold-start record: %+v", cold)
	}
	ver, err := r.run(bms[2])
	if err != nil {
		t.Fatal(err)
	}
	if ver.Name != "e2e/verify/mu6" || ver.Median <= 0 {
		t.Fatalf("verify record: %+v", ver)
	}
	rec, err := r.run(bms[0])
	if err != nil {
		t.Fatal(err)
	}
	if rec.Name != "e2e/prove/mu6" {
		t.Fatalf("record identity: %+v", rec)
	}
	if rec.Median <= 0 {
		t.Fatal("median must be positive")
	}
	// The Engine runs WithTimings, so every protocol step must appear.
	for _, step := range []string{"witness_commit", "gate_identity", "wire_identity", "batch_evals", "poly_open"} {
		if _, ok := rec.Steps[step]; !ok {
			t.Errorf("steps missing %q: %v", step, rec.Steps)
		}
	}
}

// TestQuickSuiteShape pins the coverage contract of `zkbench -quick`: at
// least 4 kernel benchmarks and at least 2 end-to-end problem sizes, with
// both MSM flavors swept over both aggregation schedules.
func TestQuickSuiteShape(t *testing.T) {
	bms := suite(defaultConfig(true))
	kernels, e2e, svc := 0, 0, 0
	names := map[string]bool{}
	for _, bm := range bms {
		if names[bm.Name] {
			t.Errorf("duplicate benchmark name %q", bm.Name)
		}
		names[bm.Name] = true
		switch {
		case strings.HasPrefix(bm.Name, "e2e/"):
			e2e++
		case strings.HasPrefix(bm.Name, "service/"):
			svc++
		default:
			kernels++
		}
	}
	if kernels < 4 {
		t.Errorf("quick suite has %d kernel benchmarks, want >= 4", kernels)
	}
	if e2e < 2 {
		t.Errorf("quick suite has %d e2e sizes, want >= 2", e2e)
	}
	// The service level must cover both the real HTTP prove path and the
	// cached overhead floor.
	if svc < 2 || !names["service/http_prove/mu8"] || !names["service/http_prove_cached/mu8"] {
		t.Errorf("quick suite service coverage wrong: %d service benchmarks", svc)
	}
	for _, want := range []string{"msm/pippenger/", "msm/sparse-fast/", "sumcheck/rounds/", "pcs/commit/", "pcs/open/", "mle/fold/"} {
		found := false
		for name := range names {
			if strings.HasPrefix(name, want) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("quick suite missing a %q benchmark", want)
		}
	}
	for _, agg := range []string{"/serial", "/grouped"} {
		found := false
		for name := range names {
			if strings.HasSuffix(name, agg) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("quick suite missing the %s aggregation schedule", agg)
		}
	}
}
