package sim

// Technology and protocol constants. Values marked "paper:" are stated in
// the zkSpeed paper; values marked "calibrated:" are fitted so the model
// reproduces a published curve or table, and the tests in sim_test.go
// (Table 5 area and power, the ~800× speedup, the CPU anchors) hold the fit.

const (
	// ClockGHz: paper: all units clock at 1 GHz (§6.1) → 1 cycle = 1 ns.
	ClockGHz = 1.0

	// FrBytes/FpBytes: BLS12-381 operand sizes. MLE words are 255-bit
	// stored as 32B; curve points are fetched as two 381-bit coordinates
	// (§4.2.1), 48B each.
	FrBytes    = 32.0
	PointBytes = 96.0

	// PADDLatency: calibrated: pipeline depth of the fully-pipelined
	// 381-bit point adder. Fits Fig. 5's SZKP serial-aggregation curve
	// (2·(2^W-1)·L cycles ≈ 2.0e5 at W=10 → L ≈ 100) and the §4.4 BEEA
	// discussion's relative latencies.
	PADDLatency = 100.0

	// PADDModmuls: calibrated: 381-bit modmuls per Jacobian mixed point
	// addition, used for area (Table 5: 105.64 mm² at 16 PEs → 6.60
	// mm²/PE ≈ 21 × 0.314 mm²) and for CPU-side operation counting.
	PADDModmuls = 21

	// AggGroupSize: paper: bucket aggregation group size 16 (§4.2.2).
	AggGroupSize = 16.0

	// SumcheckPEModmuls: paper: 94 modular multipliers per unified
	// SumCheck PE (§4.1.4). 94 × 0.133 mm² = 12.50 mm² ≈ Table 5's
	// 24.96 mm² / 2 PEs.
	SumcheckPEModmuls = 94

	// MLECombineModmuls: paper: 72 shared modmuls in the MLE Combine unit
	// (§4.5); 72 × 0.133 = 9.58 ≈ Table 5's 9.56 mm².
	MLECombineModmuls = 72

	// ConstructNDModmuls: elementwise cost of Construct N&D (≈10 modmuls
	// per gate; Table 1: 10.5M modmuls at 2^20 gates).
	ConstructNDModmuls = 10

	// BEEALatency: paper: constant-time binary extended Euclidean
	// inversion takes 2W-1 = 509 cycles at W = 255 (§4.4.1).
	BEEALatency = 509.0

	// FracBatch: paper: optimal Montgomery batch size b = 64 (§4.4.4).
	FracBatch = 64

	// FracBatchUnits: paper: 12 batched-inverse units at b = 64 fully
	// mask inversion latency (§4.4.4 / Fig. 8).
	FracBatchUnits = 12

	// MTULanes: calibrated: element throughput of the Multifunction Tree
	// Unit. Fig. 6 illustrates an 8-input tree, but the provisioned unit
	// is larger: Table 5's 12.28 mm² buys ≈92 modmuls (a 32-leaf tree
	// plus accumulators and the Build-MLE forward path), i.e. ~32
	// elements/cycle of streaming tree throughput. This also reproduces
	// the Fig. 12b share of Batch Evals & Poly Open (35.4%).
	MTULanes = 32.0

	// SHA3StepCycles: calibrated: transcript-update latency inserted
	// between protocol phases; the OpenCores SHA3 core absorbs a block in
	// 24 cycles, and a phase absorbs a handful of field elements.
	SHA3StepCycles = 200.0

	// SHA3RoundCycles: calibrated: per-sumcheck-round transcript update.
	SHA3RoundCycles = 50.0

	// Modmul areas, 7 nm: paper: Table 4 — 0.133 mm² (255 b), 0.314 mm²
	// (381 b).
	Modmul255mm2 = 0.133
	Modmul381mm2 = 0.314

	// SRAM density: calibrated: the highlighted §7.4 design is sized for
	// workloads up to 2^23 gates (Table 3), so its Table 5 SRAM budget of
	// 143.73 mm² covers ≈337 MB (compressed input MLEs ≈332 MB + MSM
	// banks + buffers) → ≈0.426 mm²/MB at 7 nm. This calibration also
	// reproduces Fig. 14's observation that MLE SRAM area begins to
	// dominate iso-CPU-area designs at 2^22-2^23.
	SRAMmm2PerMB = 0.426

	// PaperDesignMaxMu is the largest workload the fixed §7.4 design is
	// provisioned for (Table 3's Rollup at 2^23); its SRAM is sized for
	// this, independent of the workload being run.
	PaperDesignMaxMu = 23

	// MLECompression: paper: 10-11× storage compression of input MLEs
	// (§4.6); we use 10.5.
	MLECompression = 10.5

	// HBM PHY areas: paper: 14.9 mm² per HBM2 PHY (512 GB/s), 29.6 mm²
	// per HBM3 PHY (1 TB/s) (§7.1).
	HBM2PHYmm2 = 14.9
	HBM3PHYmm2 = 29.6
	// DDRPHYmm2: calibrated: per-256 GB/s DDR5-class PHY area for the
	// low-bandwidth design points of Fig. 9.
	DDRPHYmm2 = 7.5

	// MiscAreamm2: paper: Table 5 "Other" (SHA3 unit + interconnect).
	MiscAreamm2 = 1.98

	// Witness sparsity: paper: §6.2 pessimistic statistics — 10% dense,
	// 45% ones, 45% zeros.
	WitnessDenseFrac = 0.10
	WitnessOnesFrac  = 0.45

	// ScalarBits for Pippenger window count.
	ScalarBits = 255
)

// Power densities (W/mm² at full activity), calibrated so the highlighted
// design reproduces Table 5's per-unit average power given the Fig. 13
// utilizations.
const (
	PowerDensityMSM      = 0.99 // 76.19 W / (105.64 mm² × 73% util)
	PowerDensitySumcheck = 0.62 // 5.38 W / (24.96 mm² × 35% util)
	PowerDensityCompute  = 0.60 // other 255-bit units
	PowerDensitySRAM     = 0.136
	PowerPerHBM3PHY      = 31.8 // 63.6 W / 2 PHYs
)

// MLE table counts per sumcheck instance (§4.1): f_zero has 9 tables
// (5 selectors + 3 witnesses + eq), f_perm 11 (π, p1, p2, φ, D1-3, N1-3,
// eq), f_open 12 (y1-6, k1-6).
const (
	ZeroCheckTables = 9
	PermCheckTables = 11
	OpenCheckTables = 12
)
