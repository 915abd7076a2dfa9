// Package hyperplonk implements the HyperPlonk zkSNARK (Chen, Bünz, Boneh,
// Zhang 2022) as reproduced by the zkSpeed paper: Plonk gate encodings over
// the boolean hypercube (§3.1), SumCheck-based gate and wiring identities
// (§3.3.2-3.3.3), batch evaluations (§3.3.4) and the PST polynomial opening
// (§3.3.5), with SHA3 Fiat-Shamir ordering between steps (§3.3.6).
package hyperplonk

import (
	"errors"
	"fmt"

	"zkspeed/internal/ff"
	"zkspeed/internal/poly"
)

// Circuit is a compiled Plonk circuit over 2^Mu gates. Each gate i enforces
//
//	qL·w1 + qR·w2 + qM·w1·w2 - qO·w3 + qC = 0        (Eq. 1 of the paper)
//
// and the permutation σ (over the 3·2^Mu wire slots) enforces that wires
// carrying the same variable agree.
type Circuit struct {
	Mu int
	// Selector MLEs.
	QL, QR, QM, QO, QC *poly.MLE
	// Sigma[j][i] = global slot index that wire slot (j,i) maps to under
	// the copy-constraint permutation. Slot (j,i) has global index
	// j·2^Mu + i.
	Sigma [3]*poly.MLE
	// NumPublic is the count of public inputs, stored in w1[0..NumPublic).
	NumPublic int
}

// Assignment is a full witness: the three wire-value MLEs.
type Assignment struct {
	W1, W2, W3 *poly.MLE
}

// NumGates returns the number of gates 2^Mu.
func (c *Circuit) NumGates() int { return 1 << c.Mu }

// PublicVars returns the number of variables of the public-input sub-cube:
// the smallest ℓ with 2^ℓ ≥ NumPublic.
func (c *Circuit) PublicVars() int {
	l := 0
	for 1<<l < c.NumPublic {
		l++
	}
	return l
}

// Validate checks structural well-formedness of the circuit.
func (c *Circuit) Validate() error {
	n := c.NumGates()
	for name, m := range map[string]*poly.MLE{
		"qL": c.QL, "qR": c.QR, "qM": c.QM, "qO": c.QO, "qC": c.QC,
		"sigma1": c.Sigma[0], "sigma2": c.Sigma[1], "sigma3": c.Sigma[2],
	} {
		if m == nil {
			return fmt.Errorf("hyperplonk: missing %s table", name)
		}
		if m.Len() != n {
			return fmt.Errorf("hyperplonk: %s has %d entries, want %d", name, m.Len(), n)
		}
	}
	if c.NumPublic < 0 || c.NumPublic > n {
		return errors.New("hyperplonk: public input count out of range")
	}
	// σ must be a permutation of the 3n slot indices.
	seen := make([]bool, 3*n)
	for j := 0; j < 3; j++ {
		for i := 0; i < n; i++ {
			v := c.Sigma[j].Evals[i].CanonicalLimbs()
			if v[1]|v[2]|v[3] != 0 || v[0] >= uint64(3*n) {
				return fmt.Errorf("hyperplonk: sigma%d[%d] out of range", j+1, i)
			}
			s := v[0]
			if seen[s] {
				return fmt.Errorf("hyperplonk: sigma maps two slots to %d", s)
			}
			seen[s] = true
		}
	}
	return nil
}

// CheckAssignment verifies in the clear (no proof) that the assignment
// satisfies every gate and copy constraint — a debugging aid for circuit
// authors and the ground truth for prover tests.
func (c *Circuit) CheckAssignment(a *Assignment) error {
	n := c.NumGates()
	if a.W1.Len() != n || a.W2.Len() != n || a.W3.Len() != n {
		return errors.New("hyperplonk: assignment size mismatch")
	}
	var t1, t2, f ff.Fr
	for i := 0; i < n; i++ {
		// f = qL w1 + qR w2 + qM w1 w2 - qO w3 + qC
		f.SetZero()
		t1.Mul(&c.QL.Evals[i], &a.W1.Evals[i])
		f.Add(&f, &t1)
		t1.Mul(&c.QR.Evals[i], &a.W2.Evals[i])
		f.Add(&f, &t1)
		t1.Mul(&a.W1.Evals[i], &a.W2.Evals[i])
		t1.Mul(&t1, &c.QM.Evals[i])
		f.Add(&f, &t1)
		t2.Mul(&c.QO.Evals[i], &a.W3.Evals[i])
		f.Sub(&f, &t2)
		f.Add(&f, &c.QC.Evals[i])
		if !f.IsZero() {
			return fmt.Errorf("hyperplonk: gate %d not satisfied", i)
		}
	}
	wire := func(slot uint64) *ff.Fr {
		j := slot / uint64(n)
		i := slot % uint64(n)
		switch j {
		case 0:
			return &a.W1.Evals[i]
		case 1:
			return &a.W2.Evals[i]
		default:
			return &a.W3.Evals[i]
		}
	}
	for j := 0; j < 3; j++ {
		for i := 0; i < n; i++ {
			self := uint64(j*n + i)
			img := c.Sigma[j].Evals[i].CanonicalLimbs()[0]
			if !wire(self).Equal(wire(img)) {
				return fmt.Errorf("hyperplonk: copy constraint violated at slot (%d,%d)", j+1, i)
			}
		}
	}
	return nil
}

// PublicInputs extracts the public input values from an assignment.
func (c *Circuit) PublicInputs(a *Assignment) []ff.Fr {
	out := make([]ff.Fr, c.NumPublic)
	copy(out, a.W1.Evals[:c.NumPublic])
	return out
}

// PublicInputMLE builds the MLE (over PublicVars variables) of the public
// inputs, zero-padded — the polynomial the verifier evaluates itself.
func PublicInputMLE(pub []ff.Fr, numVars int) *poly.MLE {
	evals := make([]ff.Fr, 1<<numVars)
	copy(evals, pub)
	return poly.NewMLE(evals)
}
