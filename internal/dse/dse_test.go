package dse

import (
	"testing"

	"zkspeed/internal/sim"
)

func TestParetoFrontProperties(t *testing.T) {
	points := []Point{
		{RuntimeMS: 10, AreaMM2: 100},
		{RuntimeMS: 5, AreaMM2: 200},
		{RuntimeMS: 8, AreaMM2: 150},
		{RuntimeMS: 20, AreaMM2: 50},
		{RuntimeMS: 6, AreaMM2: 300}, // dominated by (5, 200)
	}
	front := ParetoFront(points)
	if len(front) != 4 {
		t.Fatalf("front has %d points, want 4", len(front))
	}
	// Front must be sorted by area with strictly decreasing runtime.
	for i := 1; i < len(front); i++ {
		if front[i].AreaMM2 < front[i-1].AreaMM2 {
			t.Fatal("front not sorted by area")
		}
		if front[i].RuntimeMS >= front[i-1].RuntimeMS {
			t.Fatal("front runtime not strictly decreasing")
		}
	}
	// No point in the input dominates a front point.
	for _, f := range front {
		for _, p := range points {
			if p.AreaMM2 < f.AreaMM2 && p.RuntimeMS < f.RuntimeMS {
				t.Fatal("front point dominated")
			}
		}
	}
}

func TestEvaluateConsistency(t *testing.T) {
	p := Evaluate(sim.PaperDesign(), 20)
	if p.RuntimeMS <= 0 || p.AreaMM2 <= 0 {
		t.Fatal("degenerate evaluation")
	}
	if p.AreaNoPHYMM2 >= p.AreaMM2 {
		t.Fatal("PHY-free area must be smaller")
	}
}

func TestFastestUnderArea(t *testing.T) {
	points := []Point{
		{RuntimeMS: 10, AreaMM2: 100, AreaNoPHYMM2: 80},
		{RuntimeMS: 5, AreaMM2: 200, AreaNoPHYMM2: 170},
		{RuntimeMS: 3, AreaMM2: 400, AreaNoPHYMM2: 370},
	}
	best, ok := FastestUnderArea(points, 250, false)
	if !ok || best.RuntimeMS != 5 {
		t.Fatal("wrong pick under area budget")
	}
	best, ok = FastestUnderArea(points, 90, true)
	if !ok || best.RuntimeMS != 10 {
		t.Fatal("wrong PHY-free pick")
	}
	if _, ok := FastestUnderArea(points, 10, false); ok {
		t.Fatal("impossible budget should fail")
	}
}

func TestFastestAtBandwidth(t *testing.T) {
	a := sim.PaperDesign()
	b := sim.PaperDesign()
	b.BandwidthGBps = 512
	points := []Point{
		{Config: a, RuntimeMS: 4, AreaMM2: 300},
		{Config: b, RuntimeMS: 9, AreaMM2: 250},
	}
	best, ok := FastestAtBandwidth(points, 512)
	if !ok || best.RuntimeMS != 9 {
		t.Fatal("bandwidth filter broken")
	}
	if _, ok := FastestAtBandwidth(points, 64); ok {
		t.Fatal("missing bandwidth should fail")
	}
}

// TestExploreSubsetParetoShape verifies the Fig. 9 trend on the real
// model: at iso-area (~300 mm²), 2 TB/s designs beat 512 GB/s designs.
func TestExploreSubsetParetoShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full DSE sweep")
	}
	points := Explore(20)
	byBW := ByBandwidth(points)
	fast512, _ := FastestAtBandwidth(byBW[512], 512)
	fast2048, _ := FastestAtBandwidth(byBW[2048], 2048)
	if fast2048.RuntimeMS*1.8 > fast512.RuntimeMS {
		t.Fatalf("2 TB/s fastest %.2f ms should be well below 512 GB/s fastest %.2f ms",
			fast2048.RuntimeMS, fast512.RuntimeMS)
	}
	// The global front must include points from multiple bandwidth tiers.
	global := ParetoFront(points)
	tiers := map[float64]bool{}
	for _, p := range global {
		tiers[p.Config.BandwidthGBps] = true
	}
	if len(tiers) < 3 {
		t.Fatalf("global Pareto spans only %d bandwidth tiers", len(tiers))
	}
}
