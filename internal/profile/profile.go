// Package profile reproduces Table 1 of the zkSpeed paper: modular
// multiplication counts, input/output sizes and arithmetic intensity of
// the HyperPlonk prover's kernels on the reference CPU implementation.
//
// The counts come from a documented first-principles cost model of the
// reference prover (per-instance sumcheck multiply counts from Eqs. 3-5,
// Pippenger accounting for the MSMs). TestTable1ModmulsWithinFactorOfPaper
// holds these numbers within 2× of the paper's measured values (its
// paperTable1 lists them), and `zkspeedsim -exp table1` prints them; the
// kernel ranking by arithmetic intensity — the property Table 1 exists to
// demonstrate — is preserved.
package profile

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// CPU-side MSM cost model (reference Rust prover):
const (
	cpuWindowBits  = 16 // arkworks window for 2^20-scale MSMs
	cpuPADDModmuls = 68 // complete projective addition + amortized aggregation
	cpuDblModmuls  = 10 // point doubling
	cpuMixedAdd    = 14 // mixed addition for the serial 1-scalar path
	scalarBits     = 255.0
	frBytes        = 32.0
	pointBytes     = 96.0
	denseFrac      = 0.10
	onesFrac       = 0.45
)

// Per-instance sumcheck multiply counts (§4.1, matches Table 1 at 2^20).
const (
	zeroCheckMuls = 74
	permCheckMuls = 90
	openCheckMuls = 30
)

// Row is one Table 1 entry.
type Row struct {
	Name      string
	ModmulsM  float64 // millions
	InputMB   float64
	OutputMB  float64
	Intensity float64 // modmul per byte of (input+output)
}

// cpuDenseMSMModmuls counts modmuls of one n-point Pippenger MSM on the
// CPU: one PADD per point per window.
func cpuDenseMSMModmuls(n float64) float64 {
	windows := math.Ceil(scalarBits / cpuWindowBits)
	return n * windows * cpuPADDModmuls
}

// cpuSparseMSMModmuls models the reference prover's witness-commit path
// (§7.3.1: the CPU "serially computes the point addition for 1-valued
// scalars" and the dense remainder with serial double-and-add).
func cpuSparseMSMModmuls(n float64) float64 {
	dense := denseFrac * n * (scalarBits*cpuDblModmuls + scalarBits/2*cpuMixedAdd)
	ones := onesFrac * n * cpuMixedAdd
	return dense + ones
}

// Table1 computes the twelve rows of Table 1 for a 2^mu-gate proof,
// sorted by descending arithmetic intensity as in the paper.
func Table1(mu int) []Row {
	n := math.Pow(2, float64(mu))
	mb := func(bytes float64) float64 { return bytes / 1e6 }

	rows := []Row{
		{
			Name:     "Poly Open MSMs",
			ModmulsM: cpuDenseMSMModmuls(n) / 1e6, // halving chain totals ~n points
			InputMB:  mb(n * (pointBytes + frBytes)),
		},
		{
			Name:     "Wire Identity MSMs",
			ModmulsM: 2 * cpuDenseMSMModmuls(n) / 1e6, // φ and π commits
			InputMB:  mb(2 * n * (pointBytes + frBytes)),
		},
		{
			Name:     "Witness MSMs",
			ModmulsM: 3 * cpuSparseMSMModmuls(n) / 1e6,
			InputMB:  mb(3 * ((denseFrac+onesFrac)*n*pointBytes + denseFrac*n*frBytes)),
		},
		{
			Name:     "Batch Evaluations",
			ModmulsM: 22 * n / 1e6,
			InputMB:  mb(2 * n * frBytes), // φ, π; the rest is compressed/shared
		},
		{
			Name:     "ZeroCheck Rounds",
			ModmulsM: zeroCheckMuls * n / 1e6,
			InputMB:  mb(9*n*frBytes + n*frBytes), // rounds ≥2 stream 9 tables; round 1 streams eq
		},
		{
			Name:     "Fraction MLE",
			ModmulsM: 5 * n / 1e6, // partial products + backward pass + N·D⁻¹
			OutputMB: mb(n * frBytes),
		},
		{
			Name:     "PermCheck Rounds",
			ModmulsM: permCheckMuls * n / 1e6,
			InputMB:  mb(11 * 2 * n * frBytes),
		},
		{
			Name:     "Linear Combine",
			ModmulsM: 18 * n / 1e6, // 22 weighted accumulations, selector/sparse tables nearly free
			InputMB:  mb(2 * n * frBytes),
			OutputMB: mb(6 * n * frBytes),
		},
		{
			Name:     "OpenCheck Rounds",
			ModmulsM: openCheckMuls * n / 1e6,
			InputMB:  mb(12 * 2 * n * frBytes),
		},
		{
			Name:     "Construct N & D",
			ModmulsM: 10 * n / 1e6,
			InputMB:  mb(3*denseFrac*n*frBytes + 3*n*2.7), // sparse witnesses + packed σ
			OutputMB: mb(8 * n * frBytes),
		},
		{
			Name:     "Product MLE",
			ModmulsM: n / 1e6,
			OutputMB: mb(n * frBytes),
		},
		{
			Name:     "All MLE Updates",
			ModmulsM: (9 + 11 + 12) * n / 1e6,
			InputMB:  mb((9 + 11 + 12) * 2 * n * frBytes * 0.85),
			OutputMB: mb((9 + 11 + 12) * n * frBytes * 0.85),
		},
	}
	for i := range rows {
		total := (rows[i].InputMB + rows[i].OutputMB) * 1e6
		rows[i].Intensity = rows[i].ModmulsM * 1e6 / total
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Intensity > rows[j].Intensity })
	return rows
}

// Format renders the rows as an aligned text table.
func Format(rows []Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-22s %12s %10s %10s %12s\n", "Kernel", "Modmuls (M)", "In (MB)", "Out (MB)", "AI (mm/B)")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-22s %12.1f %10.1f %10.1f %12.2f\n",
			r.Name, r.ModmulsM, r.InputMB, r.OutputMB, r.Intensity)
	}
	return b.String()
}
