package msm

import (
	"bytes"
	"math/big"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"zkspeed/internal/curve"
	"zkspeed/internal/ff"
	"zkspeed/internal/poly"
)

// hostileInputs seeds n points/scalars with the edge cases every MSM
// regime must survive — the same injection schedule as
// TestMSMCrossValidation (zeros, ones, r-1, λ, -λ, tiny scalars, repeated
// points, points at infinity).
func hostileInputs(rng *rand.Rand, n int) ([]curve.G1Affine, []ff.Fr) {
	pts := randPoints(rng, n)
	scalars := make([]ff.Fr, n)
	for i := range scalars {
		scalars[i] = randFr(rng)
	}
	rMinus1 := new(big.Int).Sub(ff.FrModulusBig(), big.NewInt(1))
	lambda := ff.GLVLambda()
	negLambda := new(big.Int).Sub(ff.FrModulusBig(), lambda)
	for i := 0; i < n; i++ {
		switch i % 9 {
		case 1:
			scalars[i].SetZero()
		case 2:
			scalars[i].SetOne()
		case 3:
			scalars[i].SetBigInt(rMinus1)
		case 4:
			scalars[i].SetBigInt(lambda)
		case 5:
			scalars[i].SetBigInt(negLambda)
		case 6:
			scalars[i].SetUint64(uint64(i) + 2)
		case 7:
			if i > 0 {
				pts[i] = pts[i-1] // repeated point → bucket doubling
			}
		case 8:
			pts[i] = curve.G1Infinity()
		}
	}
	return pts, scalars
}

// TestFixedBaseCrossValidation extends the MSM property matrix to the
// fixed-base kernel: windows × aggregation × parallel mode over hostile
// inputs, asserting equality with the Pippenger reference (and
// transitively the naive oracle, which the Pippenger matrix pins
// elsewhere).
func TestFixedBaseCrossValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	sizes := []int{1, 2, 3, 30}
	if !testing.Short() {
		sizes = append(sizes, 130)
	}
	for _, n := range sizes {
		pts, scalars := hostileInputs(rng, n)
		want := Pippenger(pts, scalars, Options{})
		for _, w := range []int{0, 2, 5, 9, 13} {
			tbl := BuildFixedBaseTable(pts, w, 0)
			for _, agg := range []Aggregation{AggregateSerial, AggregateGrouped} {
				for _, par := range []bool{false, true} {
					if testing.Short() && (w == 2 || (par && agg == AggregateSerial)) {
						continue
					}
					got := MSMFixedBase(tbl, scalars, Options{Aggregation: agg, Parallel: par})
					if !got.Equal(&want) {
						t.Fatalf("n=%d w=%d agg=%d par=%v: fixed-base MSM mismatch", n, w, agg, par)
					}
					sp := SparseMSMFixedBase(tbl, scalars, Options{Aggregation: agg, Parallel: par})
					if !sp.Equal(&want) {
						t.Fatalf("n=%d w=%d agg=%d par=%v: sparse fixed-base mismatch", n, w, agg, par)
					}
				}
			}
		}
	}
}

// TestFixedBaseScalarPrefix: fewer scalars than table points uses the
// table prefix.
func TestFixedBaseScalarPrefix(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	pts := randPoints(rng, 40)
	scalars := make([]ff.Fr, 25)
	for i := range scalars {
		scalars[i] = randFr(rng)
	}
	tbl := BuildFixedBaseTable(pts, 6, 0)
	want := Naive(pts[:25], scalars)
	got := MSMFixedBase(tbl, scalars, Options{Aggregation: AggregateGrouped})
	if !got.Equal(&want) {
		t.Fatal("prefix fixed-base MSM mismatch")
	}
	if got := MSMFixedBase(tbl, nil, Options{}); !got.IsInfinity() {
		t.Fatal("empty fixed-base MSM should be infinity")
	}
}

// TestFixedBaseProcsDeterminism: any goroutine budget yields the identical
// point (partials merge in task order).
func TestFixedBaseProcsDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	pts, scalars := hostileInputs(rng, 90)
	tbl := BuildFixedBaseTable(pts, 8, 0)
	want := MSMFixedBase(tbl, scalars, Options{})
	for _, procs := range []int{1, 2, 3, 16} {
		got := MSMFixedBase(tbl, scalars, Options{Parallel: true, Procs: procs})
		if !got.Equal(&want) {
			t.Fatalf("procs=%d: fixed-base MSM mismatch", procs)
		}
	}
}

// TestFixedBaseSerializeRoundTrip: WriteTo → ReadFixedBaseTable and
// WriteFile → OpenFixedBaseTableFile (both eager and lazy/mmap) all
// reproduce the same MSM result, and corruption is caught by the
// checksum on the eager path.
func TestFixedBaseSerializeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(74))
	pts, scalars := hostileInputs(rng, 50)
	tbl := BuildFixedBaseTable(pts, 7, 0)
	want := MSMFixedBase(tbl, scalars, Options{Aggregation: AggregateGrouped})

	var buf bytes.Buffer
	if _, err := tbl.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if got := int64(buf.Len()); got != FixedBaseTableFileSize(tbl.Len(), tbl.Window()) {
		t.Fatalf("serialized %d bytes, FixedBaseTableFileSize says %d",
			got, FixedBaseTableFileSize(tbl.Len(), tbl.Window()))
	}
	rt, err := ReadFixedBaseTable(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got := MSMFixedBase(rt, scalars, Options{Aggregation: AggregateGrouped}); !got.Equal(&want) {
		t.Fatal("round-tripped table MSM mismatch")
	}

	// Flip a payload byte: the eager load must refuse.
	bad := bytes.Clone(buf.Bytes())
	bad[fbHeaderSize+10] ^= 0xff
	if _, err := ReadFixedBaseTable(bytes.NewReader(bad)); err == nil {
		t.Fatal("corrupted table accepted")
	}

	path := filepath.Join(t.TempDir(), "tbl.zkfb")
	if err := tbl.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	for _, lazy := range []bool{false, true} {
		ft, err := OpenFixedBaseTableFile(path, lazy)
		if err != nil {
			t.Fatalf("lazy=%v: %v", lazy, err)
		}
		if lazy && mmapSupported && ft.Resident() {
			t.Fatal("lazy open should be file-backed on this platform")
		}
		if got := MSMFixedBase(ft, scalars, Options{Aggregation: AggregateGrouped}); !got.Equal(&want) {
			t.Fatalf("lazy=%v: file-backed table MSM mismatch", lazy)
		}
		// A file-backed table must survive serializing itself again.
		var buf2 bytes.Buffer
		if _, err := ft.WriteTo(&buf2); err != nil {
			t.Fatalf("lazy=%v rewrite: %v", lazy, err)
		}
		if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
			t.Fatalf("lazy=%v: re-serialization not byte-identical", lazy)
		}
		if err := ft.Close(); err != nil {
			t.Fatalf("lazy=%v close: %v", lazy, err)
		}
	}

	// Truncated file → header or payload error, not a panic.
	if err := os.WriteFile(path, buf.Bytes()[:30], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenFixedBaseTableFile(path, false); err == nil {
		t.Fatal("truncated table accepted")
	}
	if _, err := OpenFixedBaseTableFile(path, true); err == nil {
		t.Fatal("truncated table accepted (lazy)")
	}
}

// TestDefaultWindowFixedBase: monotone in size, clamped, and at least as
// wide as the variable-base heuristic (the doublings are free).
func TestDefaultWindowFixedBase(t *testing.T) {
	prev := 0
	for _, n := range []int{1, 100, 1000, 1 << 12, 1 << 13, 1 << 16, 1 << 19, 1 << 22} {
		w := DefaultWindowFixedBase(n)
		if w < 2 || w > 15 {
			t.Fatalf("window %d out of range at n=%d", w, n)
		}
		if w < prev {
			t.Fatalf("window shrank with size at n=%d", n)
		}
		if w < DefaultWindowFast(n) {
			t.Fatalf("fixed-base window %d narrower than variable-base %d at n=%d",
				w, DefaultWindowFast(n), n)
		}
		prev = w
	}
}

// TestOneBudgetRule pins the single rule for a goroutine budget: the
// MSM layer resolves Procs exactly as the execution context it is derived
// from (poly.Options, which sumcheck.ProveWith and the poly kernels resolve
// through) — a non-positive budget means every CPU, never one goroutine —
// and only Parallel == false forces a serial MSM.
func TestOneBudgetRule(t *testing.T) {
	for _, procs := range []int{-1, 0, 1, 3, 64} {
		want := procs
		if procs <= 0 {
			want = runtime.GOMAXPROCS(0)
		}
		if got := (poly.Options{Procs: procs}).Workers(); got != want {
			t.Fatalf("poly: Procs %d resolves to %d workers, want %d", procs, got, want)
		}
		if got := (&Options{Parallel: true, Procs: procs}).procs(); got != want {
			t.Fatalf("msm: Procs %d resolves to %d workers, want %d", procs, got, want)
		}
		if got := (&Options{Procs: procs}).procs(); got != 1 {
			t.Fatalf("msm: serial MSM with Procs %d resolves to %d workers, want 1", procs, got)
		}
	}
}
