package msm

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sync"

	"zkspeed/internal/curve"
	"zkspeed/internal/ff"
)

// Fixed-base MSM: the commit basis of a PCS never changes after Setup, so
// the doubling work a variable-base MSM spends per call can be done once.
// For every base point P_i the table stores its window multiples
//
//	T_i[w] = [2^{cw}]·P_i   for w = 0..windows-1,
//
// so a signed digit d at window w of scalar s_i contributes d·T_i[w] and
// the whole MSM collapses into ONE bucket set of 2^(c-1) signed-digit
// buckets over all (point, window) pairs — no per-window bucket sets, no
// Horner doubling chain, and a single aggregation whose cost is amortized
// over n·windows inserts instead of n. That amortization is what lets the
// fixed-base path run windows 3-4 bits wider than the variable-base fast
// path and drop ~25-35% of the bucket inserts; the aggregation itself
// stays affordable because it reuses the batch-affine addition kernel
// across the independent per-group running sums (aggregateAffine).
//
// The recoding is the fast path's carry-corrected signed-digit scheme over
// full 255-bit scalars (GLV buys nothing once the doublings are free) and
// the bucket accumulation is its batch-affine staging (affineAcc).

// fbMagic identifies a serialized fixed-base table.
var fbMagic = [4]byte{'z', 'k', 'f', 'b'}

const (
	// fbVersion is the table file format version.
	fbVersion = 1
	// fbHeaderSize is magic(4) + version(4) + window(4) + windows(4) + n(8).
	fbHeaderSize = 24
	// fbPointSize is one serialized affine point: X and Y as raw
	// little-endian Montgomery limbs plus an infinity flag byte.
	fbPointSize = 2*ff.FpBytes + 1
	// fbTrailerSize is the SHA-256 checksum over the point payload,
	// appended after it so writing streams in one pass.
	fbTrailerSize = sha256.Size
)

// FixedBaseTable holds the precomputed window multiples of a fixed point
// set. It is either resident (decoded points in memory) or file-backed
// (raw serialized payload, typically memory-mapped, decoded per access) —
// the latter bounds table memory for large bases at ~100 bytes of address
// space per table point, paged in on demand.
type FixedBaseTable struct {
	n       int              // base points
	window  int              // digit width c
	windows int              // signedWindows(ff.FrBits, c)
	pts     []curve.G1Affine // resident form; nil when file-backed
	raw     []byte           // file-backed payload; nil when resident
	closer  func() error     // releases the mapping; nil when resident
}

// Len returns the number of base points the table covers.
func (t *FixedBaseTable) Len() int { return t.n }

// Window returns the digit width c the table was built for.
func (t *FixedBaseTable) Window() int { return t.window }

// Windows returns the per-point row length (window count).
func (t *FixedBaseTable) Windows() int { return t.windows }

// Resident reports whether the table is decoded in memory (false means
// file-backed: accesses decode from the mapped payload).
func (t *FixedBaseTable) Resident() bool { return t.pts != nil }

// Close releases a file-backed table's mapping. Safe on resident tables.
func (t *FixedBaseTable) Close() error {
	if t.closer == nil {
		return nil
	}
	c := t.closer
	t.closer = nil
	t.raw = nil
	return c()
}

// point loads T_i[w] into out.
func (t *FixedBaseTable) point(i, w int, out *curve.G1Affine) {
	if t.pts != nil {
		*out = t.pts[i*t.windows+w]
		return
	}
	off := (i*t.windows + w) * fbPointSize
	b := t.raw[off : off+fbPointSize]
	if b[2*ff.FpBytes] != 0 {
		*out = curve.G1Affine{Inf: true}
		return
	}
	out.X.SetMontBytes(b[:ff.FpBytes])
	out.Y.SetMontBytes(b[ff.FpBytes : 2*ff.FpBytes])
	out.Inf = false
}

// FixedBaseWindow resolves a requested window width for an n-point table:
// non-positive picks the size heuristic, and the result is clamped to the
// recoder's supported range. Exposed so callers can name a table's cache
// file before deciding whether to build it.
func FixedBaseWindow(n, window int) int {
	c := window
	if c <= 0 {
		c = DefaultWindowFixedBase(n)
	}
	if c < 2 {
		c = 2
	}
	if c > 15 {
		c = 15
	}
	return c
}

// DefaultWindowFixedBase returns the heuristic digit width for an n-point
// fixed-base table. Wider than DefaultWindowFast at every size: the
// per-window costs a variable-base MSM pays (doubling chain, separate
// bucket sets) are gone, so the only pressure against width is the single
// 2^(c-1)-bucket aggregation, amortized over n·windows inserts. The
// breakpoints put the marginal insert saving of one more bit at roughly
// the marginal aggregation cost (each +1 bit saves ~n·255/c² inserts and
// doubles the 2^(c-1) aggregation adds), confirmed by the
// msm/fixedbase/n12/w* sweep in the bench suite.
func DefaultWindowFixedBase(n int) int {
	switch {
	case n < 1<<5:
		return 6
	case n < 1<<7:
		return 8
	case n < 1<<9:
		return 10
	case n < 1<<10:
		return 11
	case n < 1<<12:
		return 12
	case n < 1<<14:
		return 13
	case n < 1<<17:
		return 14
	default:
		return 15
	}
}

// FixedBaseTableFileSize returns the serialized size of an n-point table
// at the given (already resolved) window width.
func FixedBaseTableFileSize(n, window int) int64 {
	nw := signedWindows(ff.FrBits, window)
	return fbHeaderSize + int64(n)*int64(nw)*fbPointSize + fbTrailerSize
}

// BuildFixedBaseTable precomputes the window-multiple table for points at
// the given window width (see FixedBaseWindow for resolution). procs
// bounds the build parallelism; 0 means GOMAXPROCS. The doubling chains
// run per point and the Jacobian rows are normalized to affine with one
// shared inversion per worker chunk (curve.BatchNormalizeJac) — per-point
// inversions would otherwise dominate the build.
func BuildFixedBaseTable(points []curve.G1Affine, window, procs int) *FixedBaseTable {
	n := len(points)
	c := FixedBaseWindow(n, window)
	nw := signedWindows(ff.FrBits, c)
	if procs <= 0 {
		procs = runtime.GOMAXPROCS(0)
	}
	pts := make([]curve.G1Affine, n*nw)
	parallelFor(n, procs, func(lo, hi int) {
		jacs := make([]curve.G1Jac, (hi-lo)*nw)
		for i := lo; i < hi; i++ {
			var p curve.G1Jac
			p.FromAffine(&points[i])
			row := (i - lo) * nw
			for w := 0; w < nw; w++ {
				jacs[row+w] = p
				if w != nw-1 {
					for k := 0; k < c; k++ {
						p.Double(&p)
					}
				}
			}
		}
		curve.BatchNormalizeJac(pts[lo*nw:hi*nw], jacs)
	})
	return &FixedBaseTable{n: n, window: c, windows: nw, pts: pts}
}

// MSMFixedBase computes Σ scalars[i]·P_i over the table's base points.
// len(scalars) must not exceed the table's point count; fewer scalars use
// the table's prefix (the PCS opening chain never reaches here — tables
// exist only for the full commit basis). opt contributes the goroutine
// budget and aggregation schedule; Window is fixed by the table.
func MSMFixedBase(t *FixedBaseTable, scalars []ff.Fr, opt Options) curve.G1Jac {
	n := len(scalars)
	if n > t.n {
		panic(fmt.Sprintf("msm: %d scalars for a %d-point fixed-base table", n, t.n))
	}
	if n == 0 {
		return curve.G1Jac{}
	}
	nw := t.windows
	digits := make([]int16, n*nw)
	parallelFor(n, opt.procs(), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			w := scalars[i].CanonicalLimbs()
			signedDigits(w[:], t.window, nw, false, digits[i*nw:(i+1)*nw])
		}
	})
	return fixedBaseBuckets(t, nil, digits, n, opt)
}

// SparseMSMFixedBase is SparseMSM over a fixed-base table: zeros are
// skipped, 1-valued scalars tree-reduce their base points (row 0 of the
// table is the base itself), and the dense remainder runs the fixed-base
// bucket pass over just its table rows.
func SparseMSMFixedBase(t *FixedBaseTable, scalars []ff.Fr, opt Options) curve.G1Jac {
	if len(scalars) > t.n {
		panic(fmt.Sprintf("msm: %d scalars for a %d-point fixed-base table", len(scalars), t.n))
	}
	var onesPts []curve.G1Affine
	var rows []int32
	var denseScalars []ff.Fr
	var pt curve.G1Affine
	for i := range scalars {
		switch {
		case scalars[i].IsZero():
		case scalars[i].IsOne():
			t.point(i, 0, &pt)
			onesPts = append(onesPts, pt)
		default:
			rows = append(rows, int32(i))
			denseScalars = append(denseScalars, scalars[i])
		}
	}
	onesSum := TreeSum(onesPts)
	var denseSum curve.G1Jac
	if len(rows) > 0 {
		nw := t.windows
		digits := make([]int16, len(rows)*nw)
		parallelFor(len(rows), opt.procs(), func(lo, hi int) {
			for i := lo; i < hi; i++ {
				w := denseScalars[i].CanonicalLimbs()
				signedDigits(w[:], t.window, nw, false, digits[i*nw:(i+1)*nw])
			}
		})
		denseSum = fixedBaseBuckets(t, rows, digits, len(rows), opt)
	}
	var out curve.G1Jac
	out.Add(&onesSum, &denseSum)
	return out
}

// fixedBaseBuckets runs the single global bucket pass: every (point,
// window) pair inserts its table entry into the signed-digit bucket of
// its digit, then the buckets aggregate once. rows maps digit row i to a
// table row (nil = identity). Parallelism partitions the point range;
// each task owns a bucket set and aggregates it (aggregation is linear
// over insert partitions), and the ≤procs partials add in task order, so
// the result is deterministic for any budget.
func fixedBaseBuckets(t *FixedBaseTable, rows []int32, digits []int16, n int, opt Options) curve.G1Jac {
	nw := t.windows
	nb := 1 << uint(t.window-1)
	procs := opt.procs()
	nTasks := procs
	// A task below ~minChunkPoints inserts doesn't pay for its own bucket
	// set and aggregation.
	if max := n * nw / minChunkPoints; nTasks > max {
		nTasks = max
	}
	if nTasks < 1 {
		nTasks = 1
	}
	chunk := (n + nTasks - 1) / nTasks
	partials := make([]curve.G1Jac, nTasks)
	var wg sync.WaitGroup
	sem := make(chan struct{}, procs)
	for ti := 0; ti < nTasks; ti++ {
		wg.Add(1)
		sem <- struct{}{}
		go func(ti int) {
			defer wg.Done()
			defer func() { <-sem }()
			lo, hi := ti*chunk, (ti+1)*chunk
			if hi > n {
				hi = n
			}
			acc := newAffineAcc(nb)
			var pt curve.G1Affine
			for i := lo; i < hi; i++ {
				row := i
				if rows != nil {
					row = int(rows[i])
				}
				for w := 0; w < nw; w++ {
					d := digits[i*nw+w]
					if d == 0 {
						continue
					}
					t.point(row, w, &pt)
					if d > 0 {
						acc.add(int32(d-1), &pt, false)
					} else {
						acc.add(int32(-d-1), &pt, true)
					}
				}
			}
			partials[ti] = aggregateAffine(acc.finish(), opt.Aggregation)
		}(ti)
	}
	wg.Wait()
	var out curve.G1Jac
	for ti := range partials {
		out.Add(&out, &partials[ti])
	}
	return out
}

// aggregateAffine computes Σ (i+1)·buckets[i] from affine buckets. The
// grouped schedule batches the two running-sum adds of every group into
// one BatchAddMixed call per step — the per-group running sums are
// independent, so a 2^(c-1)-bucket aggregation costs ~6-mul affine adds
// instead of ~16-mul Jacobian ones, which is what makes the wide
// fixed-base windows affordable. The serial schedule converts to
// Jacobian and reuses the SZKP running sum unchanged.
func aggregateAffine(buckets []curve.G1Affine, agg Aggregation) curve.G1Jac {
	if agg != AggregateGrouped {
		jb := make([]curve.G1Jac, len(buckets))
		for i := range jb {
			jb[i].FromAffine(&buckets[i])
		}
		return aggregateSerial(jb)
	}
	g := GroupSize
	nb := len(buckets)
	numGroups := (nb + g - 1) / g
	running := make([]curve.G1Affine, numGroups)
	local := make([]curve.G1Affine, numGroups)
	for k := range running {
		running[k] = curve.G1Infinity()
		local[k] = curve.G1Infinity()
	}
	idx := make([]int32, 0, numGroups)
	adds := make([]curve.G1Affine, 0, numGroups)
	denoms := make([]ff.Fp, numGroups)
	scratch := make([]ff.Fp, numGroups)
	// Step s walks each group's buckets from the top (the running-sum
	// order); a short final group joins once s enters its range.
	for s := g - 1; s >= 0; s-- {
		idx, adds = idx[:0], adds[:0]
		for k := 0; k < numGroups; k++ {
			if i := k*g + s; i < nb {
				idx = append(idx, int32(k))
				adds = append(adds, buckets[i])
			}
		}
		curve.BatchAddMixed(running, idx, adds, denoms, scratch)
		adds = adds[:0]
		for _, k := range idx {
			adds = append(adds, running[k])
		}
		curve.BatchAddMixed(local, idx, adds, denoms, scratch)
	}
	groupSum := make([]curve.G1Jac, numGroups)
	groupWeighted := make([]curve.G1Jac, numGroups)
	for k := 0; k < numGroups; k++ {
		groupSum[k].FromAffine(&running[k])
		groupWeighted[k].FromAffine(&local[k])
	}
	return combineGroups(groupSum, groupWeighted, g)
}

// WriteTo serializes the table: a fixed header, the point payload (raw
// Montgomery limbs — no form conversion on either end), and a SHA-256
// trailer over the payload so eager loads can verify integrity in one
// streaming pass.
func (t *FixedBaseTable) WriteTo(w io.Writer) (int64, error) {
	var hdr [fbHeaderSize]byte
	copy(hdr[:4], fbMagic[:])
	binary.LittleEndian.PutUint32(hdr[4:8], fbVersion)
	binary.LittleEndian.PutUint32(hdr[8:12], uint32(t.window))
	binary.LittleEndian.PutUint32(hdr[12:16], uint32(t.windows))
	binary.LittleEndian.PutUint64(hdr[16:24], uint64(t.n))
	var written int64
	nn, err := w.Write(hdr[:])
	written += int64(nn)
	if err != nil {
		return written, err
	}
	h := sha256.New()
	out := io.MultiWriter(w, h)
	// Stream the payload in bounded buffers so serializing a large
	// file-backed or resident table never doubles its memory.
	const pointsPerBuf = 4096
	buf := make([]byte, 0, pointsPerBuf*fbPointSize)
	var pt curve.G1Affine
	total := t.n * t.windows
	for base := 0; base < total; base += pointsPerBuf {
		end := base + pointsPerBuf
		if end > total {
			end = total
		}
		buf = buf[:(end-base)*fbPointSize]
		for j := base; j < end; j++ {
			t.point(j/t.windows, j%t.windows, &pt)
			b := buf[(j-base)*fbPointSize:]
			pt.X.PutMontBytes(b[:ff.FpBytes])
			pt.Y.PutMontBytes(b[ff.FpBytes : 2*ff.FpBytes])
			if pt.Inf {
				b[2*ff.FpBytes] = 1
			} else {
				b[2*ff.FpBytes] = 0
			}
		}
		nn, err = out.Write(buf)
		written += int64(nn)
		if err != nil {
			return written, err
		}
	}
	nn, err = w.Write(h.Sum(nil))
	written += int64(nn)
	return written, err
}

// WriteFile atomically serializes the table to path (temp file + rename),
// so two daemons racing on one cache directory can only ever observe a
// complete table.
func (t *FixedBaseTable) WriteFile(path string) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if _, err := t.WriteTo(tmp); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// fbParseHeader validates a table header and returns (window, windows, n).
func fbParseHeader(hdr []byte) (int, int, int, error) {
	if len(hdr) < fbHeaderSize {
		return 0, 0, 0, fmt.Errorf("msm: fixed-base table truncated (%d-byte header)", len(hdr))
	}
	if [4]byte(hdr[:4]) != fbMagic {
		return 0, 0, 0, fmt.Errorf("msm: not a fixed-base table (magic %q)", hdr[:4])
	}
	if v := binary.LittleEndian.Uint32(hdr[4:8]); v != fbVersion {
		return 0, 0, 0, fmt.Errorf("msm: fixed-base table version %d, want %d", v, fbVersion)
	}
	c := int(binary.LittleEndian.Uint32(hdr[8:12]))
	nw := int(binary.LittleEndian.Uint32(hdr[12:16]))
	n := int(binary.LittleEndian.Uint64(hdr[16:24]))
	if c < 2 || c > 15 || nw != signedWindows(ff.FrBits, c) || n < 0 {
		return 0, 0, 0, fmt.Errorf("msm: fixed-base table header inconsistent (c=%d nw=%d n=%d)", c, nw, n)
	}
	return c, nw, n, nil
}

// ReadFixedBaseTable deserializes a table from r into resident form,
// verifying the payload checksum.
func ReadFixedBaseTable(r io.Reader) (*FixedBaseTable, error) {
	var hdr [fbHeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("msm: reading fixed-base table header: %w", err)
	}
	c, nw, n, err := fbParseHeader(hdr[:])
	if err != nil {
		return nil, err
	}
	payload := make([]byte, n*nw*fbPointSize)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, fmt.Errorf("msm: reading fixed-base table payload: %w", err)
	}
	var sum [fbTrailerSize]byte
	if _, err := io.ReadFull(r, sum[:]); err != nil {
		return nil, fmt.Errorf("msm: reading fixed-base table checksum: %w", err)
	}
	if sha256.Sum256(payload) != sum {
		return nil, fmt.Errorf("msm: fixed-base table checksum mismatch")
	}
	t := &FixedBaseTable{n: n, window: c, windows: nw, raw: payload}
	t.decodeResident()
	return t, nil
}

// decodeResident converts a raw-payload table to resident form.
func (t *FixedBaseTable) decodeResident() {
	pts := make([]curve.G1Affine, t.n*t.windows)
	for j := range pts {
		t.point(j/t.windows, j%t.windows, &pts[j])
	}
	t.pts = pts
	t.raw = nil
}

// OpenFixedBaseTableFile loads a table written by WriteFile. Eager mode
// reads, checksums and decodes the whole file into resident form. Lazy
// mode memory-maps the file and decodes points per access — the disk
// spill for tables too large to pin: only the pages an MSM touches are
// faulted in, and nothing is verified up front beyond the header (the
// trade for not touching every page; the cache directory is the
// operator's own). On platforms without mmap, lazy falls back to an
// eager read.
// MmapSupported reports whether lazy table opens are actually
// memory-mapped on this platform (false: lazy falls back to eager reads).
func MmapSupported() bool { return mmapSupported }

func OpenFixedBaseTableFile(path string, lazy bool) (*FixedBaseTable, error) {
	if !lazy || !mmapSupported {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return ReadFixedBaseTable(f)
	}
	data, closer, err := mmapFile(path)
	if err != nil {
		return nil, err
	}
	c, nw, n, err := fbParseHeader(data)
	if err != nil {
		closer()
		return nil, err
	}
	if want := int(FixedBaseTableFileSize(n, c)); len(data) != want {
		closer()
		return nil, fmt.Errorf("msm: fixed-base table is %d bytes, header implies %d", len(data), want)
	}
	return &FixedBaseTable{
		n: n, window: c, windows: nw,
		raw:    data[fbHeaderSize : fbHeaderSize+n*nw*fbPointSize],
		closer: closer,
	}, nil
}
