package hyperplonk_test

import (
	"context"
	"math/big"
	"runtime"
	"runtime/debug"
	"testing"

	"zkspeed/internal/ff"
	"zkspeed/internal/hyperplonk"
	"zkspeed/internal/pcs"
	"zkspeed/internal/poly"
	"zkspeed/internal/workload"
)

// allocTables bounds the bytes one μ=10 proof may allocate, in 2^μ-entry
// field tables (32 B an entry). The prover keeps only the tables it
// commits, opens or folds: the wire factors N_j, D_j and their products,
// the opening's eq tables and the opening work tables are never
// allocated, fold buffers come from the warmed arena, and the sparse
// commitments partition their scalars at exact size. At this size the
// MSMs' per-window bucket accumulators are ~840 of the tables; the proof
// measured 855–857 tables on a 2-core x86-64 box, and 877–891 when it
// still stored N&D, the eq tables and the opening copies.
const allocTables = 866

// TestProveAllocationBound runs one μ=10 proof with the collector off
// and a warmed private arena and bounds the bytes it allocates.
func TestProveAllocationBound(t *testing.T) {
	if testing.Short() {
		t.Skip("full proofs are slow")
	}
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	const mu = 10
	circuit, assignment, _, err := workload.SyntheticSeed(mu, 3)
	if err != nil {
		t.Fatal(err)
	}
	pk, _, err := hyperplonk.SetupWithPCS(circuit, pcs.SetupFromSeed([]byte{0xa1}, circuit.Mu))
	if err != nil {
		t.Fatal(err)
	}
	opts := &hyperplonk.ProveOptions{Exec: poly.Options{Procs: 2, Scratch: poly.NewScratch()}}
	prove := func() {
		if _, _, err := hyperplonk.ProveWithContext(context.Background(), pk, assignment, opts); err != nil {
			t.Fatal(err)
		}
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	prove() // warm the arena (the collector being off, nothing drains it)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	prove()
	runtime.ReadMemStats(&after)
	got := after.TotalAlloc - before.TotalAlloc
	table := uint64(32) << circuit.Mu
	t.Logf("one proof allocates %d B = %.1f tables of 2^%d entries", got, float64(got)/float64(table), circuit.Mu)
	if got > allocTables*table {
		t.Fatalf("one proof allocates %d B = %.1f tables of 2^%d entries, want <= %d",
			got, float64(got)/float64(table), circuit.Mu, allocTables)
	}
}

// TestValidateAllocationBound: Validate and CheckAssignment read σ as
// canonical limbs, so their allocations do not grow with the gate count
// (a math/big decode per entry made 3·2^μ of them; a run measures 1 and
// 0), and Validate still rejects every out-of-range or repeated image.
func TestValidateAllocationBound(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	const mu = 10
	circuit, assignment, _, err := workload.SyntheticSeed(mu, 3)
	if err != nil {
		t.Fatal(err)
	}
	if a := testing.AllocsPerRun(3, func() {
		if err := circuit.Validate(); err != nil {
			t.Fatal(err)
		}
	}); a > 2 {
		t.Fatalf("Validate allocates %.0f objects at 2^%d gates, want <= 2", a, mu)
	}
	if a := testing.AllocsPerRun(3, func() {
		if err := circuit.CheckAssignment(assignment); err != nil {
			t.Fatal(err)
		}
	}); a > 1 {
		t.Fatalf("CheckAssignment allocates %.0f objects at 2^%d gates, want <= 1", a, mu)
	}

	n := uint64(circuit.NumGates())
	sigma := circuit.Sigma[1].Evals
	orig := sigma[5]
	var twoTo64, wrapped, minusOne ff.Fr
	twoTo64.SetBigInt(new(big.Int).Lsh(big.NewInt(1), 64))
	wrapped.Add(&twoTo64, &orig) // low word orig: only the high word is wrong
	one := ff.NewFr(1)
	minusOne.Neg(&one)
	for name, v := range map[string]ff.Fr{
		"3n":          ff.NewFr(3 * n),
		"2^64":        twoTo64,
		"2^64+orig":   wrapped,
		"r-1":         minusOne,
		"duplicate":   sigma[6],
		"other table": circuit.Sigma[2].Evals[0],
	} {
		sigma[5] = v
		if err := circuit.Validate(); err == nil {
			t.Errorf("sigma image %s accepted", name)
		}
	}
	sigma[5] = orig
	if err := circuit.Validate(); err != nil {
		t.Fatal(err)
	}
}
