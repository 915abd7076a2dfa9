// Package workload provides the benchmark circuits of §6.2: the named
// real-world workloads of Table 3 (modeled by problem size, exactly as the
// paper does) and synthetic circuit generators with the paper's witness
// sparsity statistics for functional runs of the prover.
package workload

import (
	"math/rand"

	"zkspeed/internal/ff"
	"zkspeed/internal/hyperplonk"
)

// Named is one of the Table 3 evaluation workloads.
type Named struct {
	Name string
	Mu   int // log2 problem size
	// CPUms is the paper's measured CPU baseline (AMD EPYC 7502).
	CPUms float64
	// PaperZKSpeedms is the paper's reported zkSpeed runtime, printed
	// next to the model's in experiments.Table3 (`zkspeedsim -exp table3`).
	PaperZKSpeedms float64
}

// Table3Workloads lists the five real-world workloads of Table 3.
func Table3Workloads() []Named {
	return []Named{
		{Name: "Zcash", Mu: 17, CPUms: 1429, PaperZKSpeedms: 1.984},
		{Name: "Auction", Mu: 20, CPUms: 8619, PaperZKSpeedms: 11.405},
		{Name: "2^12 Rescue-Hash Invocations", Mu: 21, CPUms: 18637, PaperZKSpeedms: 22.082},
		{Name: "Zexe's Recursive Circuit", Mu: 22, CPUms: 37469, PaperZKSpeedms: 43.451},
		{Name: "Rollup of 10 Pvt Tx", Mu: 23, CPUms: 74052, PaperZKSpeedms: 86.181},
	}
}

// SyntheticSeed is Synthetic with a deterministic generator derived from
// seed — the reproducible entry point used by the public API and the CLI.
func SyntheticSeed(mu int, seed int64) (*hyperplonk.Circuit, *hyperplonk.Assignment, []ff.Fr, error) {
	return Synthetic(mu, rand.New(rand.NewSource(seed)))
}

// Synthetic builds a valid random circuit with ~2^mu gates whose witness
// statistics follow §6.2: roughly 45% zeros, 45% ones and 10% full-width
// values across the wire tables. Returns the compiled circuit, a
// satisfying assignment and the public inputs.
func Synthetic(mu int, rng *rand.Rand) (*hyperplonk.Circuit, *hyperplonk.Assignment, []ff.Fr, error) {
	b := hyperplonk.NewBuilder()
	target := 1 << mu

	// Seed variables: a mix of bits and dense field elements.
	zero := b.Witness(ff.Fr{})
	one := b.Witness(ff.NewFr(1))
	b.AssertBool(one)
	pubSeed := b.PublicInput(ff.NewFr(uint64(rng.Int63())))

	bits := []hyperplonk.Variable{zero, one}
	dense := []hyperplonk.Variable{pubSeed}
	for i := 0; i < 8; i++ {
		v := b.Witness(ff.NewFr(uint64(rng.Intn(2))))
		b.AssertBool(v)
		bits = append(bits, v)
		dense = append(dense, b.Witness(randFr(rng)))
	}

	for b.NumGatesUsed() < target-2 {
		switch rng.Intn(10) {
		case 0, 1, 2, 3: // boolean logic: AND via Mul, XOR via a+b-2ab
			x := bits[rng.Intn(len(bits))]
			y := bits[rng.Intn(len(bits))]
			and := b.Mul(x, y)
			bits = append(bits, and)
		case 4, 5, 6: // boolean add/sub keeps values in {0,±1}-ish; use select
			x := bits[rng.Intn(len(bits))]
			y := bits[rng.Intn(len(bits))]
			z := bits[rng.Intn(len(bits))]
			bits = append(bits, b.Mul(b.Mul(x, y), z))
		case 7, 8: // dense arithmetic (10%-ish of wires full-width)
			x := dense[rng.Intn(len(dense))]
			y := dense[rng.Intn(len(dense))]
			if rng.Intn(2) == 0 {
				dense = append(dense, b.Add(x, y))
			} else {
				dense = append(dense, b.Mul(x, y))
			}
		default: // constants and copies
			x := bits[rng.Intn(len(bits))]
			b.AssertBool(x)
		}
		// Bound variable pools so copy cycles stay interesting.
		if len(bits) > 512 {
			bits = bits[len(bits)-512:]
		}
		if len(dense) > 128 {
			dense = dense[len(dense)-128:]
		}
	}
	return b.Compile()
}

func randFr(rng *rand.Rand) ff.Fr {
	var e ff.Fr
	e.SetUint64(rng.Uint64())
	var f ff.Fr
	f.SetUint64(rng.Uint64())
	e.Mul(&e, &f) // spread over the field
	return e
}
