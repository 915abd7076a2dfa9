package pcs

// The PCS interface abstracts the polynomial commitment layer so the
// prover, verifier and engine are scheme-agnostic: the baseline PST
// multilinear KZG (*SRS) and the Zeromorph-style univariate mapping
// (*ZeromorphSRS) both satisfy it. Call sites outside this package must
// reach commitments only through the interface (layering_test.go asserts
// this); the concrete types stay exported for setup plumbing (the root
// package's SRS alias and Engine.SRSFor).

import (
	"fmt"
	"sort"

	"zkspeed/internal/ff"
	"zkspeed/internal/poly"
)

// Scheme identifies a commitment scheme. The zero value is SchemePST,
// so zero-valued options and legacy wire blobs keep their pre-interface
// semantics.
type Scheme uint8

const (
	// SchemePST is the baseline PST multilinear KZG: Lagrange-basis SRS,
	// halving quotient chain, (μ+1)-way pairing product.
	SchemePST Scheme = 0
	// SchemeZeromorph maps multilinears to univariates (U(f)(x) = Σ f_i
	// x^i) and commits under a powers-of-τ basis; an opening is μ+2 G1
	// points.
	SchemeZeromorph Scheme = 1
)

// schemeNames is the authoritative name table; ParseScheme and Schemes
// both derive from it so the names an unknown-scheme error lists can
// never drift from the parser.
var schemeNames = map[Scheme]string{
	SchemePST:       "pst",
	SchemeZeromorph: "zeromorph",
}

// String returns the scheme's wire/API name ("pst", "zeromorph").
func (s Scheme) String() string {
	if n, ok := schemeNames[s]; ok {
		return n
	}
	return fmt.Sprintf("scheme(%d)", uint8(s))
}

// Valid reports whether s names a registered scheme.
func (s Scheme) Valid() bool {
	_, ok := schemeNames[s]
	return ok
}

// ParseScheme maps an API name to a Scheme. The empty string selects
// SchemePST so omitted fields keep legacy behaviour.
func ParseScheme(name string) (Scheme, error) {
	if name == "" {
		return SchemePST, nil
	}
	for s, n := range schemeNames {
		if n == name {
			return s, nil
		}
	}
	return 0, fmt.Errorf("pcs: unknown scheme %q (have %v)", name, Schemes())
}

// Schemes lists the registered scheme names, sorted — what an
// unknown-scheme error lists.
func Schemes() []string {
	out := make([]string, 0, len(schemeNames))
	for _, n := range schemeNames {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// PCS is the polynomial commitment interface the prover/verifier/engine
// program against. Implementations must be safe for concurrent use after
// setup.
type PCS interface {
	// Scheme identifies the backend (serialization tag, cache keys).
	Scheme() Scheme
	// MaxVars is the largest MLE variable count the setup supports.
	MaxVars() int
	// Digest identifies the setup's commit basis (cache keys).
	Digest() [32]byte

	// Commit commits to a dense MLE of exactly MaxVars variables. The
	// *With forms of this and the methods below run under the caller's
	// execution context (goroutine budget and arena); the plain forms use
	// the zero poly.Options, all CPUs and the shared arena.
	Commit(m *poly.MLE) (Commitment, error)
	CommitWith(m *poly.MLE, opt poly.Options) (Commitment, error)
	// CommitSparse is Commit under its old name: the MSM routes zeros,
	// ones and narrow scalars by itself. The repository benchmark's layer
	// records are its only caller.
	CommitSparse(m *poly.MLE) (Commitment, error)

	// Open proves m(point) and returns the evaluation; m is not
	// modified. Verify checks a claimed evaluation against a commitment.
	Open(m *poly.MLE, point []ff.Fr) (OpeningProof, ff.Fr, error)
	OpenWith(m *poly.MLE, point []ff.Fr, opt poly.Options) (OpeningProof, ff.Fr, error)
	Verify(c Commitment, point []ff.Fr, value ff.Fr, proof OpeningProof) (bool, error)
	// VerifyWith checks a claimed evaluation of Σ coeffs[i]·m_i, where
	// cs[i] commits to m_i (additive homomorphism, batch opening), without
	// forming the combined commitment: the coefficients join the check's
	// own MSM. Its pairings share opt's goroutine budget. Verify is the
	// one-commitment case.
	VerifyWith(cs []Commitment, coeffs []ff.Fr, point []ff.Fr, value ff.Fr, proof OpeningProof, opt poly.Options) (bool, error)
}

// NewBackend runs the selected scheme's deterministic seeded setup for
// mu variables. It is the one constructor the engine calls, so adding a
// backend means one case here plus a schemeNames entry.
func NewBackend(scheme Scheme, seed []byte, mu int) (PCS, error) {
	switch scheme {
	case SchemePST:
		return SetupFromSeed(seed, mu), nil
	case SchemeZeromorph:
		return ZeromorphSetupFromSeed(seed, mu), nil
	default:
		return nil, fmt.Errorf("pcs: unknown scheme %d (have %v)", uint8(scheme), Schemes())
	}
}

// --- PST interface adapters -------------------------------------------

var _ PCS = (*SRS)(nil)

// Scheme identifies the PST backend.
func (s *SRS) Scheme() Scheme { return SchemePST }
