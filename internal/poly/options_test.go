package poly

import (
	"math/rand"
	"testing"

	"zkspeed/internal/ff"
)

// optionsMatrix is the kernel-configuration sweep every *With variant
// must match its serial counterpart under: serial, default, oversized
// fan-out, and a private arena.
func optionsMatrix() []Options {
	return []Options{
		{Procs: 1},
		{},
		{Procs: 16},
		{Procs: 3, Scratch: NewScratch()},
	}
}

func TestFixVariableWithMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, mu := range []int{0, 1, 2, 5, 10, 12} {
		base := randomMLE(rng, mu)
		r := randomFr(rng)
		for oi, opts := range optionsMatrix() {
			if mu == 0 {
				continue // no variable to fix
			}
			want := base.Clone().FixVariable(&r)
			got := base.Clone().FixVariableWith(&r, opts)
			if got.NumVars != want.NumVars {
				t.Fatalf("mu=%d opts#%d: NumVars %d != %d", mu, oi, got.NumVars, want.NumVars)
			}
			for i := range want.Evals {
				if !got.Evals[i].Equal(&want.Evals[i]) {
					t.Fatalf("mu=%d opts#%d: mismatch at %d", mu, oi, i)
				}
			}
		}
	}
}

func TestEvaluateWithMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, mu := range []int{0, 1, 2, 5, 10, 12} {
		m := randomMLE(rng, mu)
		point := make([]ff.Fr, mu)
		for i := range point {
			point[i] = randomFr(rng)
		}
		want := m.Evaluate(point)
		snapshot := m.Clone()
		for oi, opts := range optionsMatrix() {
			got := m.EvaluateWith(point, opts)
			if !got.Equal(&want) {
				t.Fatalf("mu=%d opts#%d: EvaluateWith mismatch", mu, oi)
			}
		}
		// The input table must be untouched.
		for i := range m.Evals {
			if !m.Evals[i].Equal(&snapshot.Evals[i]) {
				t.Fatalf("mu=%d: EvaluateWith mutated its input at %d", mu, i)
			}
		}
	}
}

func TestEqTableWithMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, mu := range []int{0, 1, 3, 10, 12} {
		point := make([]ff.Fr, mu)
		for i := range point {
			point[i] = randomFr(rng)
		}
		want := EqTable(point)
		for oi, opts := range optionsMatrix() {
			got := EqTableWith(point, opts)
			for i := range want.Evals {
				if !got.Evals[i].Equal(&want.Evals[i]) {
					t.Fatalf("mu=%d opts#%d: EqTableWith mismatch at %d", mu, oi, i)
				}
			}
		}
	}
}

func TestProductMLEWithMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for _, mu := range []int{0, 1, 3, 10, 12} {
		phi := randomMLE(rng, mu)
		want := ProductMLE(phi)
		for oi, opts := range optionsMatrix() {
			got := ProductMLEWith(phi, opts)
			if got.NumVars != want.NumVars {
				t.Fatalf("mu=%d opts#%d: NumVars mismatch", mu, oi)
			}
			for i := range want.Evals {
				if !got.Evals[i].Equal(&want.Evals[i]) {
					t.Fatalf("mu=%d opts#%d: ProductMLEWith mismatch at %d", mu, oi, i)
				}
			}
		}
	}
}

func TestFractionMLEWithMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for _, mu := range []int{0, 1, 3, 10, 12} {
		num := randomMLE(rng, mu)
		den := randomMLE(rng, mu)
		// Sprinkle zeros into the denominator: they must pass through as
		// zeros from every chunk.
		for i := 7; i < den.Len(); i += 13 {
			den.Evals[i].SetZero()
		}
		want := FractionMLE(num, den)
		for oi, opts := range optionsMatrix() {
			got := FractionMLEWith(num, den, opts)
			for i := range want.Evals {
				if !got.Evals[i].Equal(&want.Evals[i]) {
					t.Fatalf("mu=%d opts#%d: FractionMLEWith mismatch at %d", mu, oi, i)
				}
			}
		}
	}
}

// TestFractionOfProductsMatchesMaterialized checks the streamed
// Construct N&D + FracMLE kernel against FractionMLE over product tables
// built entry by entry from N_j = w_j + β·(j·n+i) + γ and
// D_j = w_j + β·σ_j + γ.
func TestFractionOfProductsMatchesMaterialized(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for _, mu := range []int{0, 1, 3, 10, 12} {
		n := 1 << mu
		beta, gamma := randomFr(rng), randomFr(rng)
		num, den := make([]Affine, 3), make([]Affine, 3)
		nProd, dProd := make([]ff.Fr, n), make([]ff.Fr, n)
		for i := range nProd {
			nProd[i].SetOne()
			dProd[i].SetOne()
		}
		for j := 0; j < 3; j++ {
			w, sigma := randomMLE(rng, mu), randomMLE(rng, mu)
			num[j] = Affine{W: w, Scale: beta, Offset: uint64(j * n), Shift: gamma}
			den[j] = Affine{W: w, Scale: beta, S: sigma, Shift: gamma}
			var v, id ff.Fr
			for i := 0; i < n; i++ {
				id.SetUint64(uint64(j*n + i))
				v.Mul(&beta, &id)
				v.Add(&v, &w.Evals[i])
				v.Add(&v, &gamma)
				nProd[i].Mul(&nProd[i], &v)
				v.Mul(&beta, &sigma.Evals[i])
				v.Add(&v, &w.Evals[i])
				v.Add(&v, &gamma)
				dProd[i].Mul(&dProd[i], &v)
			}
		}
		want := FractionMLE(NewMLE(nProd), NewMLE(dProd))
		for oi, opts := range optionsMatrix() {
			got := FractionOfProductsWith(num, den, opts)
			for i := range want.Evals {
				if !got.Evals[i].Equal(&want.Evals[i]) {
					t.Fatalf("mu=%d opts#%d: FractionOfProductsWith mismatch at %d", mu, oi, i)
				}
			}
		}
	}
}

func TestLinearCombineWithMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for _, mu := range []int{0, 1, 3, 10, 12} {
		var mles []*MLE
		var coeffs []ff.Fr
		for k := 0; k < 4; k++ {
			mles = append(mles, randomMLE(rng, mu))
			coeffs = append(coeffs, randomFr(rng))
		}
		want := LinearCombine(mles, coeffs)
		for oi, opts := range optionsMatrix() {
			got := LinearCombineWith(mles, coeffs, opts)
			for i := range want.Evals {
				if !got.Evals[i].Equal(&want.Evals[i]) {
					t.Fatalf("mu=%d opts#%d: LinearCombineWith mismatch at %d", mu, oi, i)
				}
			}
		}
	}
}

// TestEvaluateWithSteadyStateAllocs pins the allocation discipline: with
// a warmed arena, EvaluateWith folds entirely inside pooled buffers
// instead of cloning the table (the old Evaluate allocates the full 2^μ
// clone every call).
func TestEvaluateWithSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	rng := rand.New(rand.NewSource(17))
	m := randomMLE(rng, 12)
	point := make([]ff.Fr, 12)
	for i := range point {
		point[i] = randomFr(rng)
	}
	opts := Options{Procs: 1, Scratch: NewScratch()}
	m.EvaluateWith(point, opts) // warm the arena
	var sink ff.Fr
	avg := testing.AllocsPerRun(20, func() {
		sink = m.EvaluateWith(point, opts)
	})
	if avg > 1 {
		t.Fatalf("EvaluateWith steady state allocates %.1f objects per call, want <= 1", avg)
	}
	_ = sink
}

func randomFr(rng *rand.Rand) ff.Fr {
	var e ff.Fr
	e.SetUint64(rng.Uint64())
	var f ff.Fr
	f.SetUint64(rng.Uint64())
	// Mix two words so values exceed 64 bits.
	var sh ff.Fr
	sh.SetUint64(1 << 32)
	e.Mul(&e, &sh)
	e.Mul(&e, &sh)
	e.Add(&e, &f)
	return e
}

func randomMLE(rng *rand.Rand, mu int) *MLE {
	evals := make([]ff.Fr, 1<<mu)
	for i := range evals {
		evals[i] = randomFr(rng)
	}
	return NewMLE(evals)
}
