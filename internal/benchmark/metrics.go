package main

// metricDef declares one reported metric. The end-to-end table is the
// single source of the regression bounds: BENCHMARK.json repeats it (a
// test keeps the two in step) and -compare reads it.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // share of the baseline median a later run may lose
}

// endToEnd lists what a user of the system sees. Every workload reports
// all six.
var endToEnd = []metricDef{
	// The bounds are set by what the builder's shared 2-core box repeats,
	// not by what one would like to detect. Over three ten-run trials of
	// one commit, half an hour apart, the timing medians drifted by up to
	// 8% from one trial to the next, and in the worst half-hour the
	// quartile spreads of the timing metrics reached 8-11%; in a quiet one
	// they are 1-4%. A bound inside that band would reject changes for the
	// weather.
	//
	// Set-up is one shot at μ=16 (the ceremony alone is ~15 s), so it gets
	// the widest bound.
	{"setup_s", "s", "lower", 0.25},
	{"prove_ms_p50", "ms", "lower", 0.20},
	{"proofs_per_s", "1/s", "higher", 0.20},
	{"verify_ms_p50", "ms", "lower", 0.20},
	// A proof grows by whole 32-byte elements, so a thousandth of ~5-10 KB
	// is below one element: any growth trips the bound.
	{"proof_bytes", "B", "lower", 0.001},
	// A high-water mark is an extreme value: where the collector happens to
	// run moves it by some 5% from run to run at μ=16.
	{"peak_rss_mb", "MB", "lower", 0.15},
}

// layerMetric declares one per-layer metric. A metric with a Span is the
// median per-operation time of the spans of that name in the trace,
// converted to Unit; the others are counts and ratios set by name.
type layerMetric struct {
	Name   string
	Unit   string
	Better string
	Span   string
}

var perLayer = []layerMetric{
	{"ff.fr_mul_ns", "ns", "lower", "ff.fr_mul"},
	{"ff.fp_mul_ns", "ns", "lower", "ff.fp_mul"},

	{"curve.g1_add_mixed_ns", "ns", "lower", "curve.g1_add_mixed"},
	{"curve.g1_scalar_mul_us", "us", "lower", "curve.g1_scalar_mul"},
	{"curve.pairing_ms", "ms", "lower", "curve.pairing"},

	{"msm.dense_ms", "ms", "lower", "msm.dense"},
	{"msm.sparse_ms", "ms", "lower", "msm.sparse"},
	{"msm.sparse_dense_frac", "ratio", "lower", ""},

	{"poly.fraction_ms", "ms", "lower", "poly.fraction"},
	{"poly.product_ms", "ms", "lower", "poly.product"},
	{"poly.eq_table_ms", "ms", "lower", "poly.eq_table"},
	{"poly.evaluate_ms", "ms", "lower", "poly.evaluate"},
	{"poly.lincomb_ms", "ms", "lower", "poly.lincomb"},
	{"poly.fold_ms", "ms", "lower", "poly.fold"},

	{"sumcheck.zero_ms", "ms", "lower", "sumcheck.zero"},
	{"sumcheck.perm_ms", "ms", "lower", "sumcheck.perm"},
	{"sumcheck.open_ms", "ms", "lower", "sumcheck.open"},

	{"transcript.round_us", "us", "lower", "transcript.round"},

	{"pcs.setup_s", "s", "lower", "pcs.setup"},
	{"pcs.commit_dense_ms", "ms", "lower", "pcs.commit_dense"},
	{"pcs.commit_sparse_ms", "ms", "lower", "pcs.commit_sparse"},
	{"pcs.open_ms", "ms", "lower", "pcs.open"},
	{"pcs.verify_ms", "ms", "lower", "pcs.verify"},
	{"pcs.commit_overhead_ms", "ms", "lower", ""},

	{"hyperplonk.preprocess_s", "s", "lower", "hyperplonk.preprocess"},
	{"hyperplonk.step.witness_commit_ms", "ms", "lower", "hyperplonk.step.witness_commit"},
	{"hyperplonk.step.gate_identity_ms", "ms", "lower", "hyperplonk.step.gate_identity"},
	{"hyperplonk.step.wire_identity_ms", "ms", "lower", "hyperplonk.step.wire_identity"},
	{"hyperplonk.step.batch_evals_ms", "ms", "lower", "hyperplonk.step.batch_evals"},
	{"hyperplonk.step.poly_open_ms", "ms", "lower", "hyperplonk.step.poly_open"},
	{"hyperplonk.trace_overhead", "ratio", "lower", ""},
	{"hyperplonk.proof_encode_us", "us", "lower", "hyperplonk.proof_encode"},
	{"hyperplonk.proof_decode_us", "us", "lower", "hyperplonk.proof_decode"},
	{"hyperplonk.replay_cover", "ratio", "higher", ""},

	{"engine.key_cache_hit_us", "us", "lower", "engine.key_cache_hit"},
	{"engine.circuit_digest_ms", "ms", "lower", "engine.circuit_digest"},
	{"engine.alloc_mb_per_proof", "MB", "lower", ""},
	{"engine.batch_speedup", "ratio", "higher", ""},
	{"engine.prove_ms_hi", "ms", "lower", ""},

	// The service metrics come from the set-up and the timed phase of
	// serve-mu8-mixed and read 0 on the three workloads that never start a
	// service.
	{"service.overhead_ms_p50", "ms", "lower", ""},
	{"service.cached_ms_p50", "ms", "lower", ""},
	{"service.stream_ms_p50", "ms", "lower", ""},
	{"service.json_ms_p50", "ms", "lower", ""},
	{"service.req_ms_p95", "ms", "lower", ""},
	{"service.cache_hit_ratio", "ratio", "higher", ""},
	{"service.batch_size_mean", "count", "higher", ""},
	{"service.rejected", "count", "lower", ""},
	{"service.register_ms", "ms", "lower", "service.register"},
	{"store.append_us_p50", "us", "lower", "store.append"},

	{"sim.predicted_ms", "ms", "lower", ""},
}

// perNanosecond converts a span duration in nanoseconds to the unit.
var perNanosecond = map[string]float64{"ns": 1, "us": 1e-3, "ms": 1e-6, "s": 1e-9}
