package zkspeed_test

// One benchmark per table/figure of the zkSpeed paper's evaluation, plus
// an end-to-end benchmark of the functional HyperPlonk verifier. The full
// formatted artifacts are printed by `go run ./cmd/zkspeedsim -exp all`;
// these benchmarks regenerate the underlying data and report the headline
// quantity of each experiment as a custom metric.

import (
	"context"
	"math"
	"testing"

	"zkspeed"
	"zkspeed/internal/dse"
	"zkspeed/internal/experiments"
	"zkspeed/internal/profile"
	"zkspeed/internal/sim"
	"zkspeed/internal/workload"
)

// BenchmarkTable1 regenerates the kernel profiling table; the reported
// metric is the arithmetic-intensity gap between the MSM kernels and the
// rest (the motivation for zkSpeed's architecture split).
func BenchmarkTable1(b *testing.B) {
	var gap float64
	for i := 0; i < b.N; i++ {
		rows := profile.Table1(20)
		gap = rows[2].Intensity / rows[3].Intensity
	}
	b.ReportMetric(gap, "AI-cliff")
}

// BenchmarkTable3 regenerates the real-workload speedups; metric: the
// geomean speedup over the CPU baseline (paper: 801×).
func BenchmarkTable3(b *testing.B) {
	cfg := sim.PaperDesign()
	var gmean float64
	for i := 0; i < b.N; i++ {
		product := 1.0
		ws := workload.Table3Workloads()
		for _, w := range ws {
			res := sim.Simulate(cfg, w.Mu)
			product *= w.CPUms / res.Milliseconds()
		}
		gmean = math.Pow(product, 1/float64(len(ws)))
	}
	b.ReportMetric(gmean, "gmean-speedup")
}

// BenchmarkTable4 regenerates the prior-work comparison at 2^24; metric:
// zkSpeed's hardware prover time in ms (paper: 171.61 ms).
func BenchmarkTable4(b *testing.B) {
	cfg := sim.PaperDesign()
	var ms float64
	for i := 0; i < b.N; i++ {
		ms = sim.Simulate(cfg, 24).Milliseconds()
	}
	b.ReportMetric(ms, "ms@2^24")
}

// BenchmarkTable5 regenerates the area/power breakdown; metrics: total
// area (paper: 366.46 mm²) and power (paper: 170.88 W).
func BenchmarkTable5(b *testing.B) {
	cfg := sim.PaperDesign()
	var area, power float64
	for i := 0; i < b.N; i++ {
		res := sim.Simulate(cfg, 20)
		a := sim.Area(cfg, sim.PaperDesignMaxMu) // SRAM sized for the largest workload
		p := sim.Power(res, a)
		area, power = a.Total(), p.Total()
	}
	b.ReportMetric(area, "mm2")
	b.ReportMetric(power, "W")
}

// BenchmarkFigure5 regenerates the aggregation comparison; metric: the
// average latency reduction across window sizes (paper: 92%).
func BenchmarkFigure5(b *testing.B) {
	var avg float64
	for i := 0; i < b.N; i++ {
		sum := 0.0
		for w := 7; w <= 10; w++ {
			sum += 1 - sim.AggGroupedCycles(w)/sim.AggSerialCycles(w)
		}
		avg = sum / 4 * 100
	}
	b.ReportMetric(avg, "%reduction")
}

// BenchmarkFigure6 regenerates the MTU traversal comparison; metric: the
// hybrid schedule's PE utilization (paper: >99%).
func BenchmarkFigure6(b *testing.B) {
	var util float64
	for i := 0; i < b.N; i++ {
		util = sim.HybridTraversal(20).Utilization * 100
	}
	b.ReportMetric(util, "%util")
}

// BenchmarkFigure8 regenerates the batch-size sweep; metric: the optimal
// batch size (paper: 64).
func BenchmarkFigure8(b *testing.B) {
	var opt float64
	for i := 0; i < b.N; i++ {
		opt = float64(sim.FracMLEOptimalBatch())
	}
	b.ReportMetric(opt, "batch")
}

// BenchmarkFigure9 runs the full 1.155M-point design-space exploration;
// metric: the 2TB/s-vs-512GB/s advantage at the fast end (paper: >2×).
func BenchmarkFigure9(b *testing.B) {
	var adv float64
	for i := 0; i < b.N; i++ {
		points := dse.Explore(20)
		f512, _ := dse.FastestAtBandwidth(points, 512)
		f2048, _ := dse.FastestAtBandwidth(points, 2048)
		adv = f512.RuntimeMS / f2048.RuntimeMS
	}
	b.ReportMetric(adv, "hbm3-advantage")
}

// BenchmarkFigure10 regenerates the per-bandwidth best points (A-D);
// metric: point D's runtime.
func BenchmarkFigure10(b *testing.B) {
	var ms float64
	for i := 0; i < b.N; i++ {
		points := dse.Explore(20)
		d, _ := dse.FastestAtBandwidth(points, 4096)
		ms = d.RuntimeMS
	}
	b.ReportMetric(ms, "pointD-ms")
}

// BenchmarkFigure11 regenerates the PE/bandwidth scaling study; metric:
// MSM speedup at 16 PEs / 4 TB/s over 1 PE / 512 GB/s.
func BenchmarkFigure11(b *testing.B) {
	var sp float64
	for i := 0; i < b.N; i++ {
		base := sim.PaperDesign()
		base.MSMPEs = 1
		base.BandwidthGBps = 512
		r1 := sim.Simulate(base, 20)
		base.MSMPEs = 16
		base.BandwidthGBps = 4096
		r16 := sim.Simulate(base, 20)
		msm := func(r sim.Result) float64 {
			return r.Kernels.WitnessMSM + r.Kernels.WiringMSM + r.Kernels.PolyOpenMSM
		}
		sp = msm(r1) / msm(r16)
	}
	b.ReportMetric(sp, "msm-scaling")
}

// BenchmarkFigure12 regenerates the runtime breakdowns; metric: the Wire
// Identity share of zkSpeed's runtime (paper: 48.5%).
func BenchmarkFigure12(b *testing.B) {
	var share float64
	for i := 0; i < b.N; i++ {
		res := sim.Simulate(sim.PaperDesign(), 20)
		share = res.Steps.WireIdentity / res.TotalCycles * 100
	}
	b.ReportMetric(share, "%wire")
}

// BenchmarkFigure13 regenerates utilization/area shares; metric: MSM
// compute-area share (paper: 64.6%).
func BenchmarkFigure13(b *testing.B) {
	var share float64
	for i := 0; i < b.N; i++ {
		a := sim.Area(sim.PaperDesign(), 20)
		share = a.MSM / a.TotalCompute() * 100
	}
	b.ReportMetric(share, "%msm-area")
}

// BenchmarkFigure14 regenerates the iso-CPU-area speedups (2 TB/s subset
// of the design space per problem size); metric: total-speedup geomean.
func BenchmarkFigure14(b *testing.B) {
	var gmean float64
	for i := 0; i < b.N; i++ {
		product, count := 1.0, 0
		for mu := 17; mu <= 23; mu += 2 { // sampled sizes keep the bench tractable
			var pts []dse.Point
			for _, c := range sim.DesignSpace() {
				if c.BandwidthGBps == 2048 {
					pts = append(pts, dse.Evaluate(c, mu))
				}
			}
			best, ok := dse.FastestUnderArea(pts, sim.CPUDieAreaMM2, true)
			if !ok {
				continue
			}
			res := sim.Simulate(best.Config, mu)
			product *= sim.CPUTimeMS(mu) / res.Milliseconds()
			count++
		}
		gmean = math.Pow(product, 1/float64(count))
	}
	b.ReportMetric(gmean, "gmean-speedup")
}

// BenchmarkAblations regenerates the design-choice ablation suite;
// metric: the unified-SumCheck-PE area saving (paper: 48.9%).
func BenchmarkAblations(b *testing.B) {
	var saving float64
	for i := 0; i < b.N; i++ {
		saving = sim.ResourceSharingAblations()[0].SavingsPercent
	}
	b.ReportMetric(saving, "%area-saved")
}

// BenchmarkExperimentTextArtifacts renders the cheap text artifacts end to
// end (the expensive DSE figures are covered above).
func BenchmarkExperimentTextArtifacts(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = experiments.Table1()
		_ = experiments.Table2()
		_ = experiments.Table3()
		_ = experiments.Table4()
		_ = experiments.Table5()
		_ = experiments.Figure5()
		_ = experiments.Figure6()
		_ = experiments.Figure8()
		_ = experiments.Figure12()
		_ = experiments.Figure13()
	}
}

// ---- Functional verifier benchmark (the real cryptography) ----
//
// The prover's kernel and end-to-end records live in the zkbench suite
// (go run ./internal/zkbench); this one times Engine.Verify.

// benchSeed fixes the benchmark's inputs (workload circuit, SRS
// ceremony), making the metric reproducible run-to-run.
const benchSeed = 1

func BenchmarkVerify2pow10(b *testing.B) {
	circuit, assignment, pub, err := zkspeed.SyntheticWorkloadSeeded(10, benchSeed)
	if err != nil {
		b.Fatal(err)
	}
	eng := zkspeed.New(zkspeed.WithEntropy(zkspeed.SeededEntropy(benchSeed)))
	ctx := context.Background()
	res, err := eng.Prove(ctx, circuit, assignment)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := eng.Verify(ctx, circuit, pub, res.Proof); err != nil {
			b.Fatal(err)
		}
	}
}
