// Package experiments regenerates every table and figure of the zkSpeed
// paper's evaluation (§7) from the models in internal/sim, internal/dse
// and internal/profile. Each function returns a formatted text artifact;
// cmd/zkspeedsim prints them and the root bench harness emits them under
// `go test -bench`.
package experiments

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"zkspeed/internal/dse"
	"zkspeed/internal/hyperplonk"
	"zkspeed/internal/pcs"
	"zkspeed/internal/profile"
	"zkspeed/internal/sim"
	"zkspeed/internal/workload"
)

// Table1 reproduces the kernel profiling table (modmuls, I/O, arithmetic
// intensity at 2^20 gates).
func Table1() string {
	var b strings.Builder
	b.WriteString("Table 1: modmuls, memory footprint and arithmetic intensity (2^20 gates)\n")
	b.WriteString(profile.Format(profile.Table1(20)))
	return b.String()
}

// Table2 lists the design space (an input to the DSE, reproduced for
// completeness).
func Table2() string {
	cores, pes, windows, points, frac, sc, mleu, mlemuls, bws := sim.DesignKnobs()
	var b strings.Builder
	b.WriteString("Table 2: zkSpeed design space\n")
	fmt.Fprintf(&b, "  MSM cores:            %v\n", cores)
	fmt.Fprintf(&b, "  MSM PEs per core:     %v\n", pes)
	fmt.Fprintf(&b, "  MSM window size:      %v\n", windows)
	fmt.Fprintf(&b, "  MSM points per PE:    %v\n", points)
	fmt.Fprintf(&b, "  FracMLE PEs:          %v\n", frac)
	fmt.Fprintf(&b, "  SumCheck PEs:         %v\n", sc)
	fmt.Fprintf(&b, "  MLE Update PEs:       %v\n", mleu)
	fmt.Fprintf(&b, "  MLE Update muls/PE:   %v\n", mlemuls)
	fmt.Fprintf(&b, "  Bandwidth (GB/s):     %v\n", bws)
	fmt.Fprintf(&b, "  total configurations: %d\n", len(sim.DesignSpace()))
	return b.String()
}

// Table3 evaluates the named workloads on the fixed §7.4 design.
func Table3() string {
	cfg := sim.PaperDesign()
	var b strings.Builder
	b.WriteString("Table 3: zkSpeed on real-world workloads (fixed 2 TB/s design)\n")
	fmt.Fprintf(&b, "%-30s %5s %12s %14s %10s %16s\n",
		"Workload", "Size", "CPU (ms)", "zkSpeed (ms)", "Speedup", "paper zkSpeed")
	product := 1.0
	ws := workload.Table3Workloads()
	for _, w := range ws {
		res := sim.Simulate(cfg, w.Mu)
		sp := w.CPUms / res.Milliseconds()
		product *= sp
		fmt.Fprintf(&b, "%-30s  2^%-2d %12.0f %14.3f %9.0fx %13.3fms\n",
			w.Name, w.Mu, w.CPUms, res.Milliseconds(), sp, w.PaperZKSpeedms)
	}
	gmean := math.Pow(product, 1/float64(len(ws)))
	fmt.Fprintf(&b, "geomean speedup: %.0fx (paper: 801x)\n", gmean)
	return b.String()
}

// Table4 compares zkSpeed with NoCap and SZKP+ at 2^24 constraints/gates.
// Prior-accelerator columns are the paper's published numbers; the zkSpeed
// column is regenerated from this repository's models.
func Table4() string {
	cfg := sim.PaperDesign()
	res := sim.Simulate(cfg, 24)
	area := sim.Area(cfg, sim.PaperDesignMaxMu)
	pw := sim.Power(res, area)
	cpuS := sim.CPUTimeMS(24) / 1000

	// HyperPlonk proof size at μ=24 under this implementation: the PST
	// proof layout's accounting, uncompressed G1 points, header excluded.
	proofBytes, _ := hyperplonk.ProofSize(pcs.SchemePST, 24) // errs only for an unknown scheme
	proofKB := float64(proofBytes) / 1024

	var b strings.Builder
	b.WriteString("Table 4: comparison with prior ZKP accelerators at 2^24 constraints/gates\n")
	rows := [][4]string{
		{"Accelerator", "NoCap", "SZKP+", "zkSpeed (this repo)"},
		{"Protocol", "Spartan+Orion", "Groth16", "HyperPlonk"},
		{"Main kernels", "NTT & SumCheck", "NTT & MSM", "SumCheck & MSM"},
		{"Encoding", "R1CS", "R1CS", "Plonk"},
		{"Proof size", "8.1 MB", "0.18 KB", fmt.Sprintf("%.2f KB", proofKB)},
		{"Setup", "none", "circuit-specific", "universal"},
		{"Bit-width", "64", "255b/381b", "255b/381b"},
		{"CPU prover (s)", "94.2", "51.18", fmt.Sprintf("%.1f", cpuS)},
		{"HW prover (ms)", "151.3", "28.43", fmt.Sprintf("%.2f", res.Milliseconds())},
		{"Chip area (mm^2)", "38.73", "353.2", fmt.Sprintf("%.2f", area.Total())},
		{"Power (W)", "62", ">220", fmt.Sprintf("%.2f", pw.Total())},
	}
	for _, r := range rows {
		fmt.Fprintf(&b, "%-18s %-16s %-18s %-22s\n", r[0], r[1], r[2], r[3])
	}
	b.WriteString("(paper zkSpeed column: 171.61 ms, 366.46 mm^2, 170.88 W, 5.09 KB)\n")
	return b.String()
}

// Table5 renders the area and power breakdown of the highlighted design.
func Table5() string {
	cfg := sim.PaperDesign()
	res := sim.Simulate(cfg, 20)
	a := sim.Area(cfg, sim.PaperDesignMaxMu) // SRAM sized for the largest workload
	p := sim.Power(res, a)
	var b strings.Builder
	b.WriteString("Table 5: area and power of zkSpeed (highlighted 2 TB/s design)\n")
	fmt.Fprintf(&b, "%-22s %12s %12s\n", "Module", "Area (mm^2)", "Power (W)")
	row := func(name string, area, power float64) {
		fmt.Fprintf(&b, "%-22s %12.2f %12.2f\n", name, area, power)
	}
	row("MSM (16 PEs)", a.MSM, p.MSM)
	row("SumCheck (2 PEs)", a.Sumcheck, p.Sumcheck)
	row("Construct N&D", a.ConstructND, p.ConstructND)
	row("FracMLE", a.FracMLE, p.FracMLE)
	row("MLE Combine", a.MLECombine, p.MLECombine)
	row("MLE Update", a.MLEUpdate, p.MLEUpdate)
	row("Multifunction Tree", a.MTU, p.MTU)
	row("Other", a.Misc, p.Misc)
	row("Total Compute", a.TotalCompute(), p.TotalCompute())
	row("SRAM", a.SRAM, p.SRAM)
	row("HBM3 (2 PHYs)", a.HBMPHY, p.HBM)
	row("Total", a.Total(), p.Total())
	fmt.Fprintf(&b, "(paper totals: 366.46 mm^2, 170.88 W)\n")
	return b.String()
}

// Figure5 compares bucket-aggregation latency: SZKP's serial running sum
// vs zkSpeed's grouped scheme, for window sizes 7-10.
func Figure5() string {
	var b strings.Builder
	b.WriteString("Figure 5: MSM bucket aggregation latency (cycles)\n")
	fmt.Fprintf(&b, "%8s %14s %14s %12s\n", "Window", "SZKP", "zkSpeed", "Reduction")
	for w := 7; w <= 10; w++ {
		s := sim.AggSerialCycles(w)
		g := sim.AggGroupedCycles(w)
		fmt.Fprintf(&b, "%8d %14.0f %14.0f %11.1f%%\n", w, s, g, (1-g/s)*100)
	}
	b.WriteString("(paper: average 92% reduction across window sizes)\n")
	return b.String()
}

// Figure6 reports the Multifunction Tree Unit schedule quality: hybrid
// DFS/BFS traversal vs level-order BFS.
func Figure6() string {
	var b strings.Builder
	b.WriteString("Figure 6 / §4.3: MTU traversal comparison (2^20 workload)\n")
	h := sim.HybridTraversal(20)
	f := sim.BFSTraversal(20)
	fmt.Fprintf(&b, "%-22s %14s %14s %18s\n", "Traversal", "Makespan", "PE util", "Peak storage (el)")
	fmt.Fprintf(&b, "%-22s %14.0f %13.1f%% %18.0f\n", "hybrid DFS/BFS (ours)", h.Makespan, h.Utilization*100, h.PeakStorage)
	fmt.Fprintf(&b, "%-22s %14.0f %13.1f%% %18.0f\n", "level-order BFS", f.Makespan, f.Utilization*100, f.PeakStorage)
	b.WriteString("(paper: >99% PE utilization; BFS needs a full level — 128 MB at 2^23 — buffered)\n")
	return b.String()
}

// Figure8 sweeps the FracMLE batch size (latency imbalance and area).
func Figure8() string {
	var b strings.Builder
	b.WriteString("Figure 8: batched-inversion design sweep\n")
	fmt.Fprintf(&b, "%6s %12s %10s %14s\n", "Batch", "Imbalance", "Units", "Area (mm^2)")
	for bs := 2; bs <= 256; bs *= 2 {
		d := sim.FracMLEAnalyze(bs)
		fmt.Fprintf(&b, "%6d %12.0f %10d %14.1f\n", bs, d.LatencyImbalance, d.InverseUnits, d.StandaloneAreaMM2)
	}
	fmt.Fprintf(&b, "optimal batch size: %d (paper selects 64)\n", sim.FracMLEOptimalBatch())
	return b.String()
}

// Figure9 runs the full design-space exploration at 2^20 gates and prints
// the per-bandwidth and global Pareto frontiers.
func Figure9() string {
	points := dse.Explore(20)
	byBW := dse.ByBandwidth(points)
	var b strings.Builder
	b.WriteString("Figure 9: Pareto frontiers, 2^20 gates (area mm^2 @ runtime ms)\n")
	bws := make([]float64, 0, len(byBW))
	for bw := range byBW {
		bws = append(bws, bw)
	}
	sort.Float64s(bws)
	for _, bw := range bws {
		front := dse.ParetoFront(byBW[bw])
		fmt.Fprintf(&b, "%6.0f GB/s: %3d Pareto points; fastest %8.2f ms @ %7.1f mm^2; smallest %7.1f mm^2 @ %8.2f ms\n",
			bw, len(front),
			front[len(front)-1].RuntimeMS, front[len(front)-1].AreaMM2,
			front[0].AreaMM2, front[0].RuntimeMS)
	}
	global := dse.ParetoFront(points)
	fmt.Fprintf(&b, "global Pareto: %d points\n", len(global))
	// Sample of the global frontier.
	step := len(global) / 12
	if step < 1 {
		step = 1
	}
	for i := 0; i < len(global); i += step {
		p := global[i]
		fmt.Fprintf(&b, "  %8.1f mm^2  %8.3f ms  bw=%4.0f  [%s]\n", p.AreaMM2, p.RuntimeMS, p.Config.BandwidthGBps, p.Config)
	}
	// The paper's headline: beyond 300 mm^2, HBM3-scale points beat the
	// 512 GB/s curve by >2x.
	best512, _ := dse.FastestAtBandwidth(points, 512)
	best2048, _ := dse.FastestAtBandwidth(points, 2048)
	fmt.Fprintf(&b, "fastest @512 GB/s: %.2f ms; fastest @2 TB/s: %.2f ms (%.1fx)\n",
		best512.RuntimeMS, best2048.RuntimeMS, best512.RuntimeMS/best2048.RuntimeMS)
	return b.String()
}

// Figure10 details the best-performing design per bandwidth tier (points
// A-D): area and runtime breakdowns.
func Figure10() string {
	points := dse.Explore(20)
	var b strings.Builder
	b.WriteString("Figure 10: area / runtime breakdown of the fastest design per bandwidth\n")
	labels := []string{"A", "B", "C", "D"}
	for i, bw := range []float64{512, 1024, 2048, 4096} {
		p, ok := dse.FastestAtBandwidth(points, bw)
		if !ok {
			continue
		}
		res := sim.Simulate(p.Config, 20)
		a := sim.Area(p.Config, 20)
		t := a.Total()
		fmt.Fprintf(&b, "%s (%4.0f GB/s, %6.1f mm^2, %6.2f ms): area%% msm=%.0f sc=%.0f mem=%.0f phy=%.0f | runtime%% witMSM=%.0f wirMSM=%.0f poMSM=%.0f zc=%.0f pc=%.0f oc=%.0f other=%.0f\n",
			labels[i], bw, t, res.Milliseconds(),
			a.MSM/t*100, a.Sumcheck/t*100, a.SRAM/t*100, a.HBMPHY/t*100,
			res.Kernels.WitnessMSM/res.TotalCycles*100,
			res.Kernels.WiringMSM/res.TotalCycles*100,
			res.Kernels.PolyOpenMSM/res.TotalCycles*100,
			res.Kernels.ZeroCheck/res.TotalCycles*100,
			res.Kernels.PermCheck/res.TotalCycles*100,
			res.Kernels.OpenCheck/res.TotalCycles*100,
			res.Kernels.Other/res.TotalCycles*100)
	}
	return b.String()
}

// Figure11 reports MSM/SumCheck scaling with PEs and bandwidth,
// normalized to 1 PE at 512 GB/s.
func Figure11() string {
	var b strings.Builder
	b.WriteString("Figure 11: kernel speedup vs PE count and bandwidth (normalized to 1 PE @ 512 GB/s)\n")
	base := sim.PaperDesign()

	msmTime := func(pes int, bw float64) float64 {
		c := base
		c.MSMPEs = pes
		c.BandwidthGBps = bw
		r := sim.Simulate(c, 20)
		return r.Kernels.WitnessMSM + r.Kernels.WiringMSM + r.Kernels.PolyOpenMSM
	}
	scTime := func(pes int, bw float64) float64 {
		c := base
		c.SumcheckPEs = pes
		c.BandwidthGBps = bw
		r := sim.Simulate(c, 20)
		return r.Kernels.ZeroCheck + r.Kernels.PermCheck + r.Kernels.OpenCheck
	}
	bws := []float64{512, 1024, 2048, 4096}
	pes := []int{1, 2, 4, 8, 16}

	b.WriteString("MSM PEs:\n        ")
	for _, bw := range bws {
		fmt.Fprintf(&b, "%8.0fGB/s", bw)
	}
	b.WriteString("\n")
	msmBase := msmTime(1, 512)
	for _, p := range pes {
		fmt.Fprintf(&b, "%6d  ", p)
		for _, bw := range bws {
			fmt.Fprintf(&b, "%11.2fx", msmBase/msmTime(p, bw))
		}
		b.WriteString("\n")
	}
	b.WriteString("SumCheck PEs:\n        ")
	for _, bw := range bws {
		fmt.Fprintf(&b, "%8.0fGB/s", bw)
	}
	b.WriteString("\n")
	scBase := scTime(1, 512)
	for _, p := range pes {
		fmt.Fprintf(&b, "%6d  ", p)
		for _, bw := range bws {
			fmt.Fprintf(&b, "%11.2fx", scBase/scTime(p, bw))
		}
		b.WriteString("\n")
	}
	b.WriteString("(paper: MSMs compute-bound — scale with PEs; SumChecks memory-bound — scale with BW then saturate)\n")
	return b.String()
}

// Figure12 prints the CPU and zkSpeed runtime breakdowns at 2^20 gates.
func Figure12() string {
	var b strings.Builder
	b.WriteString("Figure 12: runtime breakdown at 2^20 gates\n")
	b.WriteString("a) CPU (Fig. 12a percentages from the paper's profile):\n")
	// stable print order
	keys := make([]string, 0, len(sim.CPUKernelFractions))
	for k := range sim.CPUKernelFractions {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&b, "   %-24s %5.1f%%\n", k, sim.CPUKernelFractions[k]*100)
	}
	res := sim.Simulate(sim.PaperDesign(), 20)
	t := res.TotalCycles
	b.WriteString("b) zkSpeed (this model, 2 TB/s):\n")
	fmt.Fprintf(&b, "   %-24s %5.1f%%  (paper:  7.8%%)\n", "Witness MSMs", res.Steps.WitnessCommit/t*100)
	fmt.Fprintf(&b, "   %-24s %5.1f%%  (paper:  8.2%%)\n", "Gate Identity", res.Steps.GateIdentity/t*100)
	fmt.Fprintf(&b, "   %-24s %5.1f%%  (paper: 48.5%%)\n", "Wire Identity", res.Steps.WireIdentity/t*100)
	fmt.Fprintf(&b, "   %-24s %5.1f%%  (paper: 35.4%%)\n", "Batch Evals & Poly Open", res.Steps.BatchEvalPolyOpen/t*100)
	return b.String()
}

// Figure13 prints per-unit utilization and compute-area share.
func Figure13() string {
	cfg := sim.PaperDesign()
	res := sim.Simulate(cfg, 20)
	a := sim.Area(cfg, 20)
	util := res.Utilization()
	areaShare := map[string]float64{
		"MSM":           a.MSM,
		"Sumcheck":      a.Sumcheck,
		"MLE Update":    a.MLEUpdate,
		"Multifunction": a.MTU,
		"Construct N&D": a.ConstructND,
		"FracMLE":       a.FracMLE,
		"MLE Combine":   a.MLECombine,
		"SHA3":          0.006,
	}
	total := a.TotalCompute()
	var b strings.Builder
	b.WriteString("Figure 13: unit utilization and compute-area share (2^20, 2 TB/s)\n")
	fmt.Fprintf(&b, "%-16s %12s %12s\n", "Unit", "Utilization", "Area share")
	order := []string{"MSM", "Sumcheck", "MLE Update", "Multifunction", "Construct N&D", "FracMLE", "MLE Combine", "SHA3"}
	for _, u := range order {
		fmt.Fprintf(&b, "%-16s %11.1f%% %11.2f%%\n", u, util[u]*100, areaShare[u]/total*100)
	}
	b.WriteString("(paper: MSM 64.6% of compute area and most-utilized unit)\n")
	return b.String()
}

// Figure14 selects an iso-CPU-area design per problem size (296 mm²
// compute+SRAM budget, PHY excluded, 2 TB/s) and reports per-kernel
// speedups over the CPU baseline.
func Figure14() string {
	var b strings.Builder
	b.WriteString("Figure 14: speedup over CPU at iso-CPU-area designs (2 TB/s)\n")
	fmt.Fprintf(&b, "%5s %8s | %9s %9s %9s %9s %9s %9s %9s\n",
		"size", "total", "witMSM", "wirMSM", "poMSM", "zero", "perm", "open", "mm^2")
	type acc struct{ prod [7]float64 }
	g := acc{prod: [7]float64{1, 1, 1, 1, 1, 1, 1}}
	count := 0
	for mu := 17; mu <= 23; mu++ {
		points := exploreAt2TBps(mu)
		best, ok := dse.FastestUnderArea(points, sim.CPUDieAreaMM2, true)
		if !ok {
			continue
		}
		res := sim.Simulate(best.Config, mu)
		cpu := sim.CPUKernels(mu)
		sp := func(c, z float64) float64 {
			if z <= 0 {
				return math.NaN()
			}
			return c / z
		}
		vals := [7]float64{
			sp(cpu.Total(), res.TotalCycles),
			sp(cpu.WitnessMSM, res.Kernels.WitnessMSM),
			sp(cpu.WiringMSM, res.Kernels.WiringMSM),
			sp(cpu.PolyOpenMSM, res.Kernels.PolyOpenMSM),
			sp(cpu.ZeroCheck, res.Kernels.ZeroCheck),
			sp(cpu.PermCheck, res.Kernels.PermCheck),
			sp(cpu.OpenCheck, res.Kernels.OpenCheck),
		}
		fmt.Fprintf(&b, " 2^%-2d %7.0fx |", mu, vals[0])
		for _, v := range vals[1:] {
			fmt.Fprintf(&b, " %8.0fx", v)
		}
		fmt.Fprintf(&b, " %9.1f\n", best.AreaNoPHYMM2)
		for i := range vals {
			g.prod[i] *= vals[i]
		}
		count++
	}
	if count > 0 {
		fmt.Fprintf(&b, "gmean %7.0fx |", math.Pow(g.prod[0], 1/float64(count)))
		for _, v := range g.prod[1:] {
			fmt.Fprintf(&b, " %8.0fx", math.Pow(v, 1/float64(count)))
		}
		b.WriteString("\n")
	}
	b.WriteString("(paper gmeans: witness 978x, wiring 784x, polyopen 1205x, zero 555x, perm 560x, open 410x)\n")
	return b.String()
}

// exploreAt2TBps evaluates the non-bandwidth knobs at 2 TB/s only (the
// Fig. 14 setting), which is 1/7 of the full space.
func exploreAt2TBps(mu int) []dse.Point {
	all := sim.DesignSpace()
	var out []dse.Point
	for _, c := range all {
		if c.BandwidthGBps != 2048 {
			continue
		}
		out = append(out, dse.Evaluate(c, mu))
	}
	return out
}

// All runs every experiment in paper order.
func All() string {
	sections := []func() string{
		Table1, Table2, Table3, Table4, Table5,
		Figure5, Figure6, Figure8, Figure9, Figure10,
		Figure11, Figure12, Figure13, Figure14,
		Ablations,
	}
	var b strings.Builder
	for _, f := range sections {
		b.WriteString(f())
		b.WriteString("\n")
	}
	return b.String()
}
