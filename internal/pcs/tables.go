package pcs

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"

	"zkspeed/internal/msm"
)

// Fixed-base commitment tables. The commit basis Lag[0] is fixed at
// Setup, so the window multiples every commitment MSM re-derives by
// doubling can be precomputed once (msm.FixedBaseTable), persisted in a
// cache directory keyed by the SRS digest, and memory-mapped back lazily
// when they outgrow the caller's residency budget. CommitWith and
// CommitSparseWith run the fixed-base kernel exactly when tables are
// attached; the proof bytes are identical either way (the kernels
// compute the same group element), which the digest-compare tests pin.

// TableOptions configures PrecomputeTables.
type TableOptions struct {
	// Window is the digit width; 0 picks the size heuristic
	// (msm.DefaultWindowFixedBase). Wider trades table memory for fewer
	// bucket inserts per commit: the table holds ceil(255/c)+1 points
	// per basis point regardless of c, but the aggregation pass doubles
	// per extra bit.
	Window int
	// Procs bounds the build parallelism; 0 means GOMAXPROCS.
	Procs int
	// CacheDir, when set, persists built tables and loads existing ones
	// instead of rebuilding — the zkproverd -table-cache directory.
	// Files are keyed by SRS digest and window, so distinct ceremonies
	// never collide.
	CacheDir string
	// MaxResidentBytes bounds decoded-table memory: a table whose file
	// form exceeds it is served from disk via mmap (decoding points per
	// access) instead of resident memory. 0 means unbounded. Requires
	// CacheDir (the file is the backing store).
	MaxResidentBytes int64
}

// CommitTables is a precomputed fixed-base table bound to the SRS it was
// built from.
type CommitTables struct {
	// Mu and Window identify the table shape; SRSDigest the ceremony.
	Mu        int
	Window    int
	SRSDigest [32]byte
	// FromCache reports whether the table was loaded from CacheDir
	// rather than built — the cold-build vs warm-load distinction the
	// zkproverd_fixedbase_table_hits metric exposes.
	FromCache bool
	// Path is the cache file backing the table ("" when purely
	// in-memory).
	Path string

	tbl *msm.FixedBaseTable
}

// Table exposes the underlying kernel table (benchmarks drive the MSM
// directly).
func (t *CommitTables) Table() *msm.FixedBaseTable { return t.tbl }

// Resident reports whether the table is decoded in memory (false: mmap).
func (t *CommitTables) Resident() bool { return t.tbl.Resident() }

// Close releases a file-backed table's mapping.
func (t *CommitTables) Close() error { return t.tbl.Close() }

// Digest identifies the SRS commit basis: a SHA-256 over mu and the
// Lag[0] points. Tables derive deterministically from the basis, so the
// digest keys their cache files; it is memoized (one O(2^mu) hash pass).
func (s *SRS) Digest() [32]byte {
	s.digestOnce.Do(func() {
		h := sha256.New()
		h.Write([]byte("zkspeed.pcs.srs.digest.v1"))
		var mu [8]byte
		binary.LittleEndian.PutUint64(mu[:], uint64(s.Mu))
		h.Write(mu[:])
		for i := range s.Lag[0] {
			b := s.Lag[0][i].Bytes()
			h.Write(b[:])
		}
		h.Sum(s.digest[:0])
	})
	return s.digest
}

// AttachTables makes commitments under this SRS route through the
// fixed-base kernel. The tables must have been built for this SRS (same
// digest); attaching is atomic, so concurrent commits either take the
// fixed-base path or the variable-base one, never a mix of tables.
func (s *SRS) AttachTables(t *CommitTables) error {
	if d := s.Digest(); t.SRSDigest != d {
		return fmt.Errorf("pcs: tables built for SRS %x, attaching to %x", t.SRSDigest[:6], d[:6])
	}
	s.tables.Store(t)
	return nil
}

// Tables returns the attached fixed-base tables, or nil.
func (s *SRS) Tables() *CommitTables { return s.tables.Load() }

// ResolveTableWindow returns the digit width PrecomputeTables would use
// for this SRS given the requested (possibly 0 = heuristic) window — the
// cache-key half the engine needs before deciding whether to build.
func ResolveTableWindow(s *SRS, requested int) int {
	return msm.FixedBaseWindow(len(s.Lag[0]), requested)
}

// tableCachePath names a table's cache file inside dir.
func tableCachePath(dir string, digest [32]byte, window int) string {
	return filepath.Join(dir, fmt.Sprintf("fbt-%x-w%d.zkfb", digest[:12], window))
}

// PrecomputeTables builds (or loads from opt.CacheDir) the fixed-base
// commitment tables for the SRS. A cache hit skips the build entirely; a
// build with CacheDir set persists the table (atomically, so concurrent
// daemons sharing the directory race benignly) before returning. When
// the table's file form exceeds opt.MaxResidentBytes the resident copy
// is dropped and the cache file is memory-mapped instead, bounding table
// memory at large mu.
func PrecomputeTables(s *SRS, opt TableOptions) (*CommitTables, error) {
	basis := s.Lag[0]
	window := msm.FixedBaseWindow(len(basis), opt.Window)
	ct := &CommitTables{Mu: s.Mu, Window: window, SRSDigest: s.Digest()}
	spill := opt.MaxResidentBytes > 0 &&
		msm.FixedBaseTableFileSize(len(basis), window) > opt.MaxResidentBytes

	if opt.CacheDir != "" {
		ct.Path = tableCachePath(opt.CacheDir, ct.SRSDigest, window)
		tbl, err := msm.OpenFixedBaseTableFile(ct.Path, spill)
		if err == nil {
			if tbl.Len() != len(basis) || tbl.Window() != window {
				// The digest+window key makes this unreachable short of
				// file corruption that still checksums — rebuild.
				tbl.Close()
			} else {
				ct.tbl = tbl
				ct.FromCache = true
				return ct, nil
			}
		} else if !os.IsNotExist(err) {
			return nil, fmt.Errorf("pcs: loading table cache: %w", err)
		}
	}

	tbl := msm.BuildFixedBaseTable(basis, window, opt.Procs)
	if opt.CacheDir != "" {
		if err := os.MkdirAll(opt.CacheDir, 0o755); err != nil {
			return nil, fmt.Errorf("pcs: table cache dir: %w", err)
		}
		if err := tbl.WriteFile(ct.Path); err != nil {
			return nil, fmt.Errorf("pcs: persisting tables: %w", err)
		}
		if spill {
			mapped, err := msm.OpenFixedBaseTableFile(ct.Path, true)
			if err != nil {
				return nil, fmt.Errorf("pcs: reopening spilled tables: %w", err)
			}
			tbl = mapped
		}
	}
	ct.tbl = tbl
	return ct, nil
}
