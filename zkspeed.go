// Package zkspeed is the public API of this repository: a from-scratch Go
// implementation of the HyperPlonk zkSNARK over BLS12-381 together with
// the zkSpeed accelerator performance/area/power models and design-space
// exploration from the ISCA 2025 paper "Need for zkSpeed: Accelerating
// HyperPlonk for Zero-Knowledge Proofs".
//
// The entry point is the Engine: a reusable prover session that caches the
// universal SRS and per-circuit keys, so only the first proof of a
// relation pays for setup.
//
// Functional side (the workload):
//
//	b := zkspeed.NewBuilder()
//	x := b.Witness(zkspeed.NewScalar(3))
//	y := b.PublicInput(zkspeed.NewScalar(9))
//	b.AssertEqual(b.Mul(x, x), y)
//	circuit, assignment, pub, _ := b.Compile()
//
//	eng := zkspeed.New(zkspeed.WithTimings())
//	res, _ := eng.Prove(ctx, circuit, assignment)
//	err := eng.Verify(ctx, circuit, pub, res.Proof)
//
// Modeling side (the accelerator), coupled to measured proofs through
// Engine.Estimate:
//
//	est := eng.Estimate(res.Stats, zkspeed.PaperDesign())
//	// est.PredictedMS vs est.MeasuredMS vs est.CPUBaselineMS
//	points := zkspeed.ExploreDesignSpace(20)
package zkspeed

import (
	"zkspeed/internal/dse"
	"zkspeed/internal/ff"
	"zkspeed/internal/hyperplonk"
	"zkspeed/internal/pcs"
	"zkspeed/internal/sim"
	"zkspeed/internal/workload"
)

// ---- Functional API (HyperPlonk over BLS12-381) ----

// Scalar is an element of the BLS12-381 scalar field Fr.
type Scalar = ff.Fr

// NewScalar returns v as a field element.
func NewScalar(v uint64) Scalar { return ff.NewFr(v) }

// Circuit is a compiled Plonk circuit (selectors + permutation).
type Circuit = hyperplonk.Circuit

// Assignment is a full wire-value witness.
type Assignment = hyperplonk.Assignment

// Builder constructs circuits gate by gate.
type Builder = hyperplonk.Builder

// Variable is a handle to a circuit value.
type Variable = hyperplonk.Variable

// Proof is a succinct HyperPlonk proof.
type Proof = hyperplonk.Proof

// ProvingKey and VerifyingKey are the preprocessed circuit keys.
type (
	ProvingKey   = hyperplonk.ProvingKey
	VerifyingKey = hyperplonk.VerifyingKey
)

// StepTimings records prover wall-clock time per protocol step.
type StepTimings = hyperplonk.StepTimings

// SRS is the universal structured reference string (shared across
// circuits of the same size).
type SRS = pcs.SRS

// NewBuilder creates an empty circuit builder.
func NewBuilder() *Builder { return hyperplonk.NewBuilder() }

// SetupWithPCS preprocesses a circuit under an existing commitment
// backend reached through the pcs.PCS interface — HyperPlonk's
// one-time-setup property without an Engine. The backend of an existing
// key is available as pk.PCS, so a second circuit of the same size reuses
// the ceremony:
//
//	pk2, vk2, err := zkspeed.SetupWithPCS(c2, pk1.PCS)
func SetupWithPCS(c *Circuit, backend PCS) (*ProvingKey, *VerifyingKey, error) {
	return hyperplonk.SetupWithPCS(c, backend)
}

// PCS is the polynomial commitment backend interface; every registered
// scheme (PCSSchemes) implements it.
type PCS = pcs.PCS

// PCSSchemes lists the registered polynomial commitment scheme names
// accepted by WithPCSScheme, sorted.
func PCSSchemes() []string {
	return pcs.Schemes()
}

// SyntheticWorkloadSeeded builds a valid random 2^mu-gate circuit with the
// paper's §6.2 witness statistics, deterministically from seed.
func SyntheticWorkloadSeeded(mu int, seed int64) (*Circuit, *Assignment, []Scalar, error) {
	return workload.SyntheticSeed(mu, seed)
}

// ---- Accelerator model API ----

// DesignConfig is one zkSpeed design point (Table 2 of the paper).
type DesignConfig = sim.Config

// SimResult is the outcome of simulating a proof on a design point.
type SimResult = sim.Result

// AreaBreakdown is the Table 5 area decomposition.
type AreaBreakdown = sim.AreaBreakdown

// PowerBreakdown is the Table 5 power decomposition.
type PowerBreakdown = sim.PowerBreakdown

// DesignPoint is an evaluated (runtime, area) pair from the DSE.
type DesignPoint = dse.Point

// PaperDesign returns the paper's highlighted 366 mm² / 2 TB/s design.
func PaperDesign() DesignConfig { return sim.PaperDesign() }

// Simulate runs the full-chip performance model for a 2^mu-gate proof.
func Simulate(cfg DesignConfig, mu int) SimResult { return sim.Simulate(cfg, mu) }

// Area evaluates the area model for a design sized for 2^mu-gate problems.
func Area(cfg DesignConfig, mu int) AreaBreakdown { return sim.Area(cfg, mu) }

// Power estimates average power for a simulated run.
func Power(res SimResult, area AreaBreakdown) PowerBreakdown { return sim.Power(res, area) }

// CPUTimeMS returns the calibrated CPU-baseline proving latency.
func CPUTimeMS(mu int) float64 { return sim.CPUTimeMS(mu) }

// ExploreDesignSpace evaluates every Table 2 configuration at 2^mu gates.
func ExploreDesignSpace(mu int) []DesignPoint { return dse.Explore(mu) }

// ParetoFront extracts the area/runtime-optimal subset of design points.
func ParetoFront(points []DesignPoint) []DesignPoint { return dse.ParetoFront(points) }
