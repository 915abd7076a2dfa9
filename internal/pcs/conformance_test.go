package pcs

// Backend conformance suite: every PCS implementation runs the same
// matrix — μ=0..12, random and edge evaluation points, dense vs sparse
// commit agreement, serial/parallel determinism, setup digest stability,
// and the shifted-opening contract (proof round-trip where supported,
// ErrShiftUnsupported where not). A new backend passes by appending one
// entry to conformanceBackends.

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"zkspeed/internal/ff"
	"zkspeed/internal/poly"
)

var conformanceBackends = []Scheme{SchemePST, SchemeZeromorph}

// conformanceMus is the full matrix; the slow tail (large setups, many
// pairings) is trimmed under -short.
func conformanceMus(t *testing.T) []int {
	if testing.Short() {
		return []int{0, 1, 2, 3, 4, 5}
	}
	return []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}
}

// sparseMLE returns an MLE with ~2/3 zero entries (exercises the sparse
// commit path the witness columns take).
func sparseMLE(rng *rand.Rand, nv int) *poly.MLE {
	evals := make([]ff.Fr, 1<<nv)
	for i := range evals {
		if rng.Intn(3) == 0 {
			evals[i] = randFr(rng)
		}
	}
	return poly.NewMLE(evals)
}

// rotateMLE returns shift(m): rot[i] = m[(i+1) mod 2^μ].
func rotateMLE(m *poly.MLE) *poly.MLE {
	n := m.Len()
	evals := make([]ff.Fr, n)
	copy(evals, m.Evals[1:])
	evals[n-1] = m.Evals[0]
	return poly.NewMLE(evals)
}

func TestConformance(t *testing.T) {
	for _, scheme := range conformanceBackends {
		for _, mu := range conformanceMus(t) {
			t.Run(fmt.Sprintf("%s/mu%d", scheme, mu), func(t *testing.T) {
				conformanceOne(t, scheme, mu)
			})
		}
	}
}

func conformanceOne(t *testing.T, scheme Scheme, mu int) {
	seed := []byte{0xc0, byte(scheme), byte(mu)}
	backend, err := NewBackend(scheme, seed, mu)
	if err != nil {
		t.Fatalf("NewBackend: %v", err)
	}
	if backend.Scheme() != scheme {
		t.Fatalf("Scheme() = %v, want %v", backend.Scheme(), scheme)
	}
	if backend.MaxVars() != mu {
		t.Fatalf("MaxVars() = %d, want %d", backend.MaxVars(), mu)
	}

	// Setup digest stability: the same seed reproduces the identical
	// basis; a different seed must not.
	again, err := NewBackend(scheme, seed, mu)
	if err != nil {
		t.Fatalf("NewBackend (again): %v", err)
	}
	if backend.Digest() != again.Digest() {
		t.Fatal("setup is not deterministic: digests differ for one seed")
	}
	if mu > 0 {
		other, err := NewBackend(scheme, []byte{0xff}, mu)
		if err != nil {
			t.Fatalf("NewBackend (other seed): %v", err)
		}
		if backend.Digest() == other.Digest() {
			t.Fatal("distinct seeds produced the same setup digest")
		}
	}

	rng := rand.New(rand.NewSource(int64(1000*int(scheme) + mu)))
	m := randMLE(rng, mu)
	c, err := backend.Commit(m)
	if err != nil {
		t.Fatalf("Commit: %v", err)
	}

	// Dense and sparse commits must agree on the same table.
	sp := sparseMLE(rng, mu)
	cd, err := backend.Commit(sp)
	if err != nil {
		t.Fatalf("Commit(sparse table): %v", err)
	}
	cs, err := backend.CommitSparse(sp)
	if err != nil {
		t.Fatalf("CommitSparse: %v", err)
	}
	if !cd.P.Equal(&cs.P) {
		t.Fatal("sparse commit != dense commit")
	}

	// Random point plus the hypercube-corner edge cases (all-zeros,
	// all-ones): open, check the claimed value, verify.
	points := [][]ff.Fr{make([]ff.Fr, mu), make([]ff.Fr, mu), make([]ff.Fr, mu)}
	for i := range points[0] {
		points[0][i] = randFr(rng)
		points[2][i].SetOne()
	}
	for pi, point := range points {
		proof, v, err := backend.Open(m, point)
		if err != nil {
			t.Fatalf("point %d: Open: %v", pi, err)
		}
		if want := m.Evaluate(point); !v.Equal(&want) {
			t.Fatalf("point %d: Open value != direct evaluation", pi)
		}
		ok, err := backend.Verify(c, point, v, proof)
		if err != nil || !ok {
			t.Fatalf("point %d: Verify = %v, %v; want true", pi, ok, err)
		}
		var wrong ff.Fr
		wrong.SetOne()
		wrong.Add(&wrong, &v)
		ok, err = backend.Verify(c, point, wrong, proof)
		if err != nil {
			t.Fatalf("point %d: Verify(wrong value) errored: %v", pi, err)
		}
		if ok {
			t.Fatalf("point %d: Verify accepted a wrong value", pi)
		}
	}

	// Serial and parallel opens must produce byte-identical proofs
	// (field arithmetic is exact; any divergence is a kernel bug).
	serialOpt := poly.Options{Procs: 1}
	parOpt := poly.Options{}
	pSerial, vSerial, err := backend.OpenWith(m, points[0], serialOpt)
	if err != nil {
		t.Fatalf("OpenWith(serial): %v", err)
	}
	pPar, vPar, err := backend.OpenWith(m, points[0], parOpt)
	if err != nil {
		t.Fatalf("OpenWith(parallel): %v", err)
	}
	if !vSerial.Equal(&vPar) {
		t.Fatal("serial and parallel opens disagree on the value")
	}
	if len(pSerial.Quotients) != len(pPar.Quotients) {
		t.Fatal("serial and parallel proofs differ in shape")
	}
	for i := range pSerial.Quotients {
		if !pSerial.Quotients[i].Equal(&pPar.Quotients[i]) {
			t.Fatalf("serial and parallel proofs differ at quotient %d", i)
		}
	}

	// Homomorphic combination is part of the interface contract.
	c2, err := backend.Commit(sp)
	if err != nil {
		t.Fatalf("Commit: %v", err)
	}
	coeffs := []ff.Fr{randFr(rng), randFr(rng)}
	comb := backend.Combine([]Commitment{c, c2}, coeffs)
	evals := make([]ff.Fr, 1<<mu)
	var t1, t2 ff.Fr
	for i := range evals {
		t1.Mul(&coeffs[0], &m.Evals[i])
		t2.Mul(&coeffs[1], &sp.Evals[i])
		evals[i].Add(&t1, &t2)
	}
	cWant, err := backend.Commit(poly.NewMLE(evals))
	if err != nil {
		t.Fatalf("Commit(combined table): %v", err)
	}
	if !comb.P.Equal(&cWant.P) {
		t.Fatal("Combine != commit of the linear combination")
	}

	conformanceShift(t, backend, m, c, points[0], rng)
}

// conformanceShift exercises the shifted-opening half of the contract.
func conformanceShift(t *testing.T, backend PCS, m *poly.MLE, c Commitment, point []ff.Fr, rng *rand.Rand) {
	if !backend.SupportsShift() {
		if _, _, err := backend.OpenShift(m, point); !errors.Is(err, ErrShiftUnsupported) {
			t.Fatalf("OpenShift on non-shift backend: err = %v, want ErrShiftUnsupported", err)
		}
		if _, err := backend.VerifyShifted(c, point, ff.Fr{}, ShiftProof{}); !errors.Is(err, ErrShiftUnsupported) {
			t.Fatalf("VerifyShifted on non-shift backend: err = %v, want ErrShiftUnsupported", err)
		}
		return
	}
	sp, v, err := backend.OpenShift(m, point)
	if err != nil {
		t.Fatalf("OpenShift: %v", err)
	}
	rot := rotateMLE(m)
	if want := rot.Evaluate(point); !v.Equal(&want) {
		t.Fatal("OpenShift value != rotated polynomial evaluation")
	}
	if !sp.Boundary.Equal(&m.Evals[0]) {
		t.Fatal("ShiftProof boundary != f_0")
	}
	ok, err := backend.VerifyShifted(c, point, v, sp)
	if err != nil || !ok {
		t.Fatalf("VerifyShifted = %v, %v; want true", ok, err)
	}
	var wrong ff.Fr
	wrong.SetOne()
	wrong.Add(&wrong, &v)
	if ok, err := backend.VerifyShifted(c, point, wrong, sp); err != nil || ok {
		t.Fatalf("VerifyShifted(wrong value) = %v, %v; want false", ok, err)
	}
	// A tampered boundary must be caught: it is transcript-bound AND
	// pairing-bound, so flipping it breaks the check.
	bad := sp
	bad.Boundary.Add(&bad.Boundary, &wrong)
	if ok, err := backend.VerifyShifted(c, point, v, bad); err != nil || ok {
		t.Fatalf("VerifyShifted(tampered boundary) = %v, %v; want false", ok, err)
	}
}

func TestParseSchemeRoundTrip(t *testing.T) {
	for _, name := range Schemes() {
		s, err := ParseScheme(name)
		if err != nil {
			t.Fatalf("ParseScheme(%q): %v", name, err)
		}
		if s.String() != name {
			t.Fatalf("round trip: %q -> %v -> %q", name, s, s.String())
		}
		if !s.Valid() {
			t.Fatalf("scheme %q not Valid()", name)
		}
	}
	if _, err := ParseScheme(""); err != nil {
		t.Fatalf("empty scheme must parse as PST, got %v", err)
	}
	if s, _ := ParseScheme(""); s != SchemePST {
		t.Fatal("empty scheme != PST")
	}
	if _, err := ParseScheme("nope"); err == nil {
		t.Fatal("unknown scheme parsed")
	}
	if Scheme(200).Valid() {
		t.Fatal("unregistered scheme reported Valid")
	}
}

func TestNewBackendUnknown(t *testing.T) {
	if _, err := NewBackend(Scheme(200), []byte{1}, 3); err == nil {
		t.Fatal("NewBackend accepted an unknown scheme")
	}
}
