package pcs

// Backend conformance suite: every PCS implementation runs the same
// matrix — μ=0..12, random and edge evaluation points, dense vs sparse
// commit agreement, serial/parallel determinism, setup digest stability
// and homomorphic combination. A new backend passes by appending one
// entry to conformanceBackends.

import (
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

	// Homomorphic combination is part of the interface contract: the
	// opening of Σ coeffs[i]·m_i verifies against the commitments and
	// their coefficients, and not with one coefficient changed.
	c2, err := backend.Commit(sp)
	if err != nil {
		t.Fatalf("Commit: %v", err)
	}
	conformanceCombination(t, backend, []*poly.MLE{m, sp}, []Commitment{c, c2}, points[0], rng)
}

// conformanceCombination opens Σ coeffs[i]·ms[i] at point for random
// coefficients and checks it with VerifyWith against cs, the commitments
// of ms, under one goroutine and under two: it must accept, and reject
// each coefficient plus one whose commitment is not the identity (an
// all-zero table's coefficient changes nothing).
func conformanceCombination(t *testing.T, backend PCS, ms []*poly.MLE, cs []Commitment, point []ff.Fr, rng *rand.Rand) {
	t.Helper()
	coeffs := make([]ff.Fr, len(ms))
	for i := range coeffs {
		coeffs[i] = randFr(rng)
	}
	proof, v, err := backend.Open(poly.LinearCombine(ms, coeffs), point)
	if err != nil {
		t.Fatalf("Open(combination): %v", err)
	}
	one := ff.FrOne()
	for _, procs := range []int{1, 2} {
		opt := poly.Options{Procs: procs}
		ok, err := backend.VerifyWith(cs, coeffs, point, v, proof, opt)
		if err != nil || !ok {
			t.Fatalf("procs %d: VerifyWith(combination) = %v, %v; want true", procs, ok, err)
		}
		changed := 0
		for i := range coeffs {
			if cs[i].P.Inf {
				continue
			}
			bad := append([]ff.Fr(nil), coeffs...)
			bad[i].Add(&bad[i], &one)
			ok, err := backend.VerifyWith(cs, bad, point, v, proof, opt)
			if err != nil {
				t.Fatalf("procs %d: VerifyWith(coefficient %d changed) errored: %v", procs, i, err)
			}
			if ok {
				t.Fatalf("procs %d: VerifyWith accepted coefficient %d changed", procs, i)
			}
			changed++
		}
		if changed == 0 {
			t.Fatal("every commitment is the identity: no coefficient change was checked")
		}
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
