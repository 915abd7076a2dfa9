package zkspeed_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestInternalImportBoundary enforces the layering rule of the public API:
// only the root zkspeed package (the files in the repository root) and
// code under internal/ may import zkspeed/internal/... packages. The
// commands and examples must compile against the public surface alone, so
// that everything they do is expressible through the documented API.
func TestInternalImportBoundary(t *testing.T) {
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			// The root package and internal/ are the two legitimate homes
			// for internal imports; everything else is checked.
			if path == "internal" || name == ".git" || name == ".github" || strings.HasPrefix(name, "_") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		if filepath.Dir(path) == "." {
			// Root-package files (and its tests) may import internal/.
			return nil
		}
		f, perr := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if perr != nil {
			t.Errorf("%s: %v", path, perr)
			return nil
		}
		for _, imp := range f.Imports {
			v := strings.Trim(imp.Path.Value, `"`)
			if v == "zkspeed/internal" || strings.HasPrefix(v, "zkspeed/internal/") {
				t.Errorf("%s imports %s: packages outside internal/ must use the public zkspeed API", path, v)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestPCSInterfaceBoundary enforces the commitment-scheme layering rule:
// the hyperplonk protocol layer and the root engine reach the PCS only
// through the pcs.PCS interface. Naming the concrete PST type or its
// free setup functions is confined to two files — the root's SRS type
// alias and the PST-only SRSFor accessor — so a new backend never requires
// touching prover, verifier or engine code.
func TestPCSInterfaceBoundary(t *testing.T) {
	// Selector expressions on the pcs package that bind callers to the
	// concrete PST scheme.
	forbidden := []string{
		"pcs.SRS", "pcs.SetupFromSeed", "pcs.SetupWithTaus", "pcs.CombineCommitments",
	}
	allowed := map[string]bool{
		"zkspeed.go": true, // SRS type alias
		"pst.go":     true, // SRSFor (PST-only)
	}
	check := func(path string) {
		if allowed[path] || strings.HasSuffix(path, "_test.go") || !strings.HasSuffix(path, ".go") {
			return
		}
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		for _, tok := range forbidden {
			if strings.Contains(string(src), tok) {
				t.Errorf("%s references %s: reach the commitment scheme through the pcs.PCS interface", path, strings.TrimSuffix(tok, "("))
			}
		}
	}
	for _, dir := range []string{".", "internal/hyperplonk"} {
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if e.IsDir() {
				continue
			}
			check(filepath.Join(dir, e.Name()))
		}
	}
}

// TestOnePathPerLayer keeps the shape "a reference is a function, never
// an option value" and "ship only what a workload runs": no non-test
// source outside the frozen benchmark directory names a kernel selector,
// a deprecated entry point, the fixed-base commit tables, a steal toggle,
// the cross-run bench comparator, the uncached engine, the volatile null
// store, a second per-tenant submit entry point, the shard routing and
// work stealing of the one-queue service, the deleted multi-node
// tier (its join and option entry points, wire protocol, metrics and
// endpoint), the root re-export of the benchmark suite, the record
// fields only the deleted comparator read, the caller-less helpers
// deleted with them, the per-request commitment-scheme pin, the WAL
// claim record or the micro-suite's second shape (its quick and e2e-mu
// flags, the list parser and the per-shape config); nothing calls the
// sparse commit
// aliases (CommitSparse, SparseMSM); no struct has a field called
// Kernel, Steal or Shard, and the goroutine budget is a field of exactly
// the two option structs that own one — everything else carries a
// poly.Options.
func TestOnePathPerLayer(t *testing.T) {
	// The names deleted with the fixed-base tables, the steal toggle, the
	// bench comparator, the uncached engine, the volatile store, the
	// tenant-suffixed submit methods, the Jacobian ones tree, the math/big
	// GLV splitter, the per-shard service queues, the multi-node tier, the
	// benchmark re-export layer, the shifted-opening surface, the priority
	// lanes, the per-request scheme pin, the WAL claim record, the
	// micro-suite's quick/full shapes and two unused root aliases are
	// spelled in halves, so a grep of the tree for them finds none here.
	banned := []string{
		"Deprecated:", "KernelSigned", "KernelBatchAffine", "KernelBaseline", "SumcheckKernel",
		"Fixed" + "Base", "Attach" + "Tables", "Precompute" + "Tables", "zk" + "fb", "Mont" + "Bytes", "Steal" + "Interval",
		"Compare" + "BenchReports", "Read" + "BenchReport", "Without" + "SRSCache", "New" + "Mem", "Submit" + "As",
		"Tree" + "Sum", "GLV" + "Splitter",
		"Steal" + "Newest", "steal" + "For", "shard" + "For", "jobs_" + "stolen",
		"Join" + "Cluster", "With" + "Cluster", "ZK" + "CW", "zkproverd_" + "cluster_", "/v1/" + "cluster",
		"Bench" + "Config", "Benchmark" + "Case", "Bench" + "Runner", "Bench" + "Record", "DefaultBench" + "Config",
		"Kernel" + "Benchmarks", "E2E" + "Benchmarks", "Service" + "Benchmarks", "Durability" + "Benchmarks",
		"Suite" + "Benchmarks", "bench." + "RunB", "Kind" + "Kernel", "Kind" + "E2E", "Kind" + "Service",
		"Raw" + "NS", "Mean" + "NS", "Stddev" + "NS", "Min" + "NS", "Max" + "NS",
		"Tenant" + "Counts", "NewZero" + "MLE", "Fr" + "Zero()", "Fp" + "One()", "Global" + "Pareto",
		"Open" + "Shift", "Verify" + "Shifted", "Shift" + "Proof", "Supports" + "Shift", "ErrShift" + "Unsupported",
		"Priority" + "High", "num" + "Priorities", "parse" + "Priority",
		"ErrCode" + "PCSScheme", "check" + "PCSScheme", "encode" + "Claim", "." + "Claim(",
		"ServiceBackend" + "Stats", "ServiceOverloaded" + "Error",
		"\"e2e" + "-mu\"", "\"qu" + "ick\"", "parseMu" + "List", "default" + "Config",
	}
	// The sparse commit names survive only as aliases of the routed
	// commit for the frozen benchmark's layer records: they may be
	// defined, never used, outside internal/benchmark.
	oldCommitNames := map[string]bool{"CommitSparse": true, "SparseMSM": true}
	procsOwners := map[string]bool{
		"internal/msm/msm.go":      true, // msm.Options
		"internal/poly/options.go": true, // poly.Options
	}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path == "internal/benchmark" || (name != "." && strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, tok := range banned {
			if strings.Contains(string(src), tok) {
				t.Errorf("%s contains %q: variants are deleted and references are functions", path, tok)
			}
		}
		f, err := parser.ParseFile(fset, path, src, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			var use *ast.Ident
			switch e := n.(type) {
			case *ast.SelectorExpr:
				use = e.Sel
			case *ast.CallExpr:
				use, _ = e.Fun.(*ast.Ident)
			}
			if use != nil && oldCommitNames[use.Name] {
				t.Errorf("%s: %s is an alias kept for internal/benchmark; call Commit, CommitWith or msm.MSMWithOptions", fset.Position(use.Pos()), use.Name)
			}
			st, ok := n.(*ast.StructType)
			if !ok {
				return true
			}
			for _, field := range st.Fields.List {
				for _, name := range field.Names {
					switch {
					case name.Name == "Kernel":
						t.Errorf("%s: struct field Kernel: select a path by calling it, not by an option value", fset.Position(name.Pos()))
					case name.Name == "Steal" || name.Name == "Shard":
						t.Errorf("%s: struct field %s: one queue feeds every batch loop, nothing is routed or stolen", fset.Position(name.Pos()), name.Name)
					case name.Name == "Procs" && !procsOwners[filepath.ToSlash(path)]:
						t.Errorf("%s: struct field Procs: carry a poly.Options instead of a second goroutine budget", fset.Position(name.Pos()))
					}
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
