package pcs

import (
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"zkspeed/internal/ff"
	"zkspeed/internal/msm"
	"zkspeed/internal/poly"
)

func testMLE(t *testing.T, rng *rand.Rand, mu int) *poly.MLE {
	t.Helper()
	evals := make([]ff.Fr, 1<<mu)
	for i := range evals {
		evals[i] = ff.NewFr(rng.Uint64())
		if i%7 == 0 {
			evals[i].SetZero() // exercise the sparse path's skip logic
		}
		if i%11 == 0 {
			evals[i].SetOne()
		}
	}
	return poly.NewMLE(evals)
}

// TestPrecomputeRouting: commitments through attached tables are
// byte-identical to the variable-base path, for both the dense and
// sparse forms, under any execution context.
func TestPrecomputeRouting(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	srs := SetupFromSeed([]byte("tables-routing"), 6)
	m := testMLE(t, rng, 6)

	want, err := srs.Commit(m)
	if err != nil {
		t.Fatal(err)
	}
	wantSparse, err := srs.CommitSparse(m)
	if err != nil {
		t.Fatal(err)
	}
	if !want.P.Equal(&wantSparse.P) {
		t.Fatal("dense/sparse baseline disagree")
	}

	ct, err := PrecomputeTables(srs, TableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if ct.FromCache {
		t.Fatal("in-memory build reported FromCache")
	}
	if ct.Window != msm.DefaultWindowFixedBase(1<<6) {
		t.Fatalf("window %d, heuristic says %d", ct.Window, msm.DefaultWindowFixedBase(1<<6))
	}
	if err := srs.AttachTables(ct); err != nil {
		t.Fatal(err)
	}
	if srs.Tables() != ct {
		t.Fatal("Tables() lost the attachment")
	}

	for _, opt := range []poly.Options{{}, {Procs: 1}, {Procs: 3}} {
		got, err := srs.CommitWith(m, opt)
		if err != nil {
			t.Fatal(err)
		}
		if !got.P.Equal(&want.P) {
			t.Fatalf("fixed-base commit differs (opt=%+v)", opt)
		}
		gotSparse, err := srs.CommitSparseWith(m, opt)
		if err != nil {
			t.Fatal(err)
		}
		if !gotSparse.P.Equal(&want.P) {
			t.Fatalf("fixed-base sparse commit differs (opt=%+v)", opt)
		}
	}

	// Attaching tables from a different ceremony must be refused.
	other := SetupFromSeed([]byte("other-ceremony"), 6)
	if err := other.AttachTables(ct); err == nil {
		t.Fatal("cross-SRS table attachment accepted")
	}
}

// TestPrecomputeCacheDir: second PrecomputeTables against the same
// directory is a load, not a build, and commits identically; corrupting
// the cache file surfaces an error rather than bad points.
func TestPrecomputeCacheDir(t *testing.T) {
	rng := rand.New(rand.NewSource(82))
	srs := SetupFromSeed([]byte("tables-cache"), 5)
	m := testMLE(t, rng, 5)
	want, err := srs.Commit(m)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	cold, err := PrecomputeTables(srs, TableOptions{CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if cold.FromCache {
		t.Fatal("cold build reported FromCache")
	}
	if _, err := os.Stat(cold.Path); err != nil {
		t.Fatalf("cache file not persisted: %v", err)
	}

	warm, err := PrecomputeTables(srs, TableOptions{CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if !warm.FromCache {
		t.Fatal("warm load not reported as FromCache")
	}
	if err := srs.AttachTables(warm); err != nil {
		t.Fatal(err)
	}
	got, err := srs.Commit(m)
	if err != nil {
		t.Fatal(err)
	}
	if !got.P.Equal(&want.P) {
		t.Fatal("cache-loaded table commit differs")
	}

	// A different window gets its own file.
	w9, err := PrecomputeTables(srs, TableOptions{CacheDir: dir, Window: 9})
	if err != nil {
		t.Fatal(err)
	}
	if w9.FromCache {
		t.Fatal("different window hit the wrong cache file")
	}
	if w9.Path == warm.Path {
		t.Fatal("window not part of the cache key")
	}

	// Corrupt the payload: the eager load must refuse (checksum).
	data, err := os.ReadFile(cold.Path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(cold.Path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := PrecomputeTables(srs, TableOptions{CacheDir: dir}); err == nil {
		t.Fatal("corrupted cache file accepted")
	}
}

// TestPrecomputeSpill: a residency budget below the table size serves the
// table from its cache file (mmap on unix) with identical commitments.
func TestPrecomputeSpill(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	srs := SetupFromSeed([]byte("tables-spill"), 5)
	m := testMLE(t, rng, 5)
	want, err := srs.Commit(m)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	ct, err := PrecomputeTables(srs, TableOptions{CacheDir: dir, MaxResidentBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer ct.Close()
	if msm.MmapSupported() && ct.Resident() {
		t.Fatal("spilled table still resident")
	}
	if err := srs.AttachTables(ct); err != nil {
		t.Fatal(err)
	}
	got, err := srs.Commit(m)
	if err != nil {
		t.Fatal(err)
	}
	if !got.P.Equal(&want.P) {
		t.Fatal("spilled table commit differs")
	}

	// Warm load under the same budget maps the existing file.
	warm, err := PrecomputeTables(srs, TableOptions{CacheDir: dir, MaxResidentBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer warm.Close()
	if !warm.FromCache {
		t.Fatal("spilled warm load not FromCache")
	}
}

// TestSRSDigest: deterministic across rebuilds of the same ceremony,
// distinct across ceremonies and sizes.
func TestSRSDigest(t *testing.T) {
	a := SetupFromSeed([]byte("digest"), 4)
	b := SetupFromSeed([]byte("digest"), 4)
	if a.Digest() != b.Digest() {
		t.Fatal("same ceremony, different digest")
	}
	c := SetupFromSeed([]byte("digest2"), 4)
	if a.Digest() == c.Digest() {
		t.Fatal("different ceremony, same digest")
	}
	d := SetupFromSeed([]byte("digest"), 5)
	if a.Digest() == d.Digest() {
		t.Fatal("different mu, same digest")
	}
	if got := tableCachePath("x", a.Digest(), 9); got != filepath.Join("x", tableCachePath("", a.Digest(), 9)) {
		t.Fatalf("unexpected cache path shape: %s", got)
	}
}

// TestOpenUnderAnyBudget is the pcs side of the one-budget rule: both
// backends hand the execution context's Procs to the MSM layer untouched
// (msmOptions; msm's TestOneBudgetRule pins that it then resolves like
// poly.Options), so a non-positive budget means every CPU for commitments
// and quotient folds alike, and openings are byte-identical and verify
// under every value.
func TestOpenUnderAnyBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(84))
	m := testMLE(t, rng, 4)
	point := make([]ff.Fr, 4)
	for i := range point {
		point[i] = ff.NewFr(rng.Uint64())
	}
	for _, scheme := range []Scheme{SchemePST, SchemeZeromorph} {
		backend, err := NewBackend(scheme, []byte("procs-open"), 4)
		if err != nil {
			t.Fatal(err)
		}
		c, err := backend.Commit(m)
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := backend.Open(m, point)
		if err != nil {
			t.Fatal(err)
		}
		for _, procs := range []int{-1, 0, 1, 3, 64} {
			opt := poly.Options{Procs: procs}
			if mo := msmOptions(opt); !mo.Parallel || mo.Procs != procs {
				t.Fatalf("%v: budget %d reaches the MSM layer as %+v", scheme, procs, mo)
			}
			proof, val, err := backend.OpenWith(m, point, opt)
			if err != nil {
				t.Fatalf("%v procs=%d: %v", scheme, procs, err)
			}
			for i := range want.Quotients {
				if !proof.Quotients[i].Equal(&want.Quotients[i]) {
					t.Fatalf("%v procs=%d: quotient %d differs from the default opening", scheme, procs, i)
				}
			}
			ok, err := backend.Verify(c, point, val, proof)
			if err != nil || !ok {
				t.Fatalf("%v procs=%d: opening did not verify (ok=%v err=%v)", scheme, procs, ok, err)
			}
		}
	}
}
