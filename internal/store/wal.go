package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// WAL wire format. Each segment file is
//
//	u32 magic "ZKWL" | u8 version
//
// followed by length-prefixed, checksummed records:
//
//	u32 payloadLen | u32 crc32c(payload) | payload
//
// where payload[0] is the record type. Records are replayed in segment
// order; a torn or corrupt record in the FINAL segment is the expected
// signature of a crash mid-append and truncates the tail, while
// corruption in an earlier segment (whose bytes were fsynced before any
// later segment existed) is reported as an error. Compaction snapshots
// the live state into a fresh segment and deletes the older ones; replay
// of a snapshot over surviving older segments is idempotent, so a crash
// between those two steps loses nothing.
const (
	walMagic      = 0x5a4b574c // "ZKWL"
	walVersion    = 1
	walHeaderLen  = 5
	walFrameLen   = 8
	walMaxPayload = 1 << 30

	recCircuit byte = 1
	recSubmit  byte = 2
	recChunk   byte = 3
	recClaim   byte = 4 // never written; kept so older logs replay
	recDone    byte = 5
	recFail    byte = 6
)

var walCRC = crc32.MakeTable(crc32.Castagnoli)

// WALConfig tunes a WAL store. The zero value of every field selects the
// documented default.
type WALConfig struct {
	// Dir is the segment directory; created if missing. Required.
	Dir string
	// SegmentBytes rotates the active segment past this size.
	// Default 64 MiB.
	SegmentBytes int64
	// CompactMinBytes is the on-disk floor below which compaction never
	// triggers. Default 4 MiB. Auto-compaction runs when total log bytes
	// exceed both this floor and 4× the live-state estimate.
	CompactMinBytes int64
	// Retention bounds retained terminal records (Done + Failed), like
	// the service's JobRetention. Default 1024.
	Retention int
}

func (c WALConfig) withDefaults() WALConfig {
	if c.SegmentBytes == 0 {
		c.SegmentBytes = 64 << 20
	}
	if c.CompactMinBytes == 0 {
		c.CompactMinBytes = 4 << 20
	}
	if c.Retention == 0 {
		c.Retention = 1024
	}
	return c
}

// WALStats are the log's observability counters, surfaced at /metrics.
type WALStats struct {
	// Segments and LogBytes describe the on-disk log right now.
	Segments int
	LogBytes int64
	// Appends and Syncs count records written and fsync calls.
	Appends int64
	Syncs   int64
	// Compactions counts snapshot rewrites since open.
	Compactions int64
	// RecoveredPending/Done/Failed/Circuits describe what replay found
	// at open time; TruncatedTail reports a torn final record was
	// dropped (the expected crash signature, not an error).
	RecoveredPending  int
	RecoveredDone     int
	RecoveredFailed   int
	RecoveredCircuits int
	TruncatedTail     bool
}

// WAL is the durable Store: an append-only checksummed log plus the
// in-memory mirror that makes State() and compaction O(live state).
type WAL struct {
	cfg WALConfig

	mu      sync.Mutex
	st      *memState
	active  *os.File
	actSeq  uint64
	actSize int64
	total   int64 // bytes across all segments
	liveEst int64 // estimated bytes a snapshot would write
	dirty   bool  // records written since the last fsync
	closed  bool
	stats   WALStats
}

// OpenWAL opens (creating if needed) the log in cfg.Dir, replays every
// segment into memory, and returns the store ready for appends. The
// recovered state is available through State(); Stats() reports what
// replay found.
func OpenWAL(cfg WALConfig) (*WAL, error) {
	if cfg.Dir == "" {
		return nil, errors.New("store: WAL needs a directory")
	}
	cfg = cfg.withDefaults()
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	w := &WAL{cfg: cfg, st: newMemState(cfg.Retention)}
	if err := w.replayDir(); err != nil {
		return nil, err
	}
	// Chunks with no adopting submit after a full replay belong to
	// uploads that were in flight when the process died; they can never
	// be adopted now (the HTTP request died with it), so drop them —
	// this also neutralises chunk records replayed twice when a crash
	// lands between a compaction snapshot and the old-segment deletes.
	w.st.chunks = make(map[string][]byte)
	w.stats.RecoveredPending = len(w.st.pending)
	w.stats.RecoveredDone = len(w.st.done)
	w.stats.RecoveredFailed = len(w.st.failed)
	w.stats.RecoveredCircuits = len(w.st.circuits)
	w.liveEst = w.estimateLive()
	if err := w.openActive(); err != nil {
		return nil, err
	}
	return w, nil
}

// segPath names segment files so lexical order equals numeric order.
func (w *WAL) segPath(seq uint64) string {
	return filepath.Join(w.cfg.Dir, fmt.Sprintf("seg-%012d.wal", seq))
}

// segments lists existing segment sequence numbers in replay order.
func (w *WAL) segments() ([]uint64, error) {
	ents, err := os.ReadDir(w.cfg.Dir)
	if err != nil {
		return nil, err
	}
	var seqs []uint64
	for _, e := range ents {
		name := e.Name()
		if !strings.HasPrefix(name, "seg-") || !strings.HasSuffix(name, ".wal") {
			continue
		}
		n, err := strconv.ParseUint(name[4:len(name)-4], 10, 64)
		if err != nil {
			continue
		}
		seqs = append(seqs, n)
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	return seqs, nil
}

// replayDir replays every segment into the in-memory state.
func (w *WAL) replayDir() error {
	seqs, err := w.segments()
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	for i, seq := range seqs {
		last := i == len(seqs)-1
		size, truncated, err := w.replaySegment(w.segPath(seq), last)
		if err != nil {
			return err
		}
		w.total += size
		if truncated {
			w.stats.TruncatedTail = true
		}
		if seq >= w.actSeq {
			w.actSeq = seq
		}
	}
	w.stats.Segments = len(seqs)
	return nil
}

// replaySegment applies one segment's records. In the final segment a
// torn or corrupt tail is truncated in place (and the file shortened so
// later appends never follow garbage); anywhere else it is an error.
func (w *WAL) replaySegment(path string, last bool) (size int64, truncated bool, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, false, fmt.Errorf("store: %w", err)
	}
	if len(data) < walHeaderLen || binary.BigEndian.Uint32(data[:4]) != walMagic {
		return 0, false, fmt.Errorf("store: %s: bad segment header", path)
	}
	if data[4] != walVersion {
		return 0, false, fmt.Errorf("store: %s: unsupported version %d", path, data[4])
	}
	off := int64(walHeaderLen)
	for {
		payload, next, ok := nextRecord(data, off)
		if !ok {
			if int(off) == len(data) {
				return off, false, nil // clean end
			}
			if !last {
				return 0, false, fmt.Errorf("store: %s: corrupt record at offset %d", path, off)
			}
			// Torn tail of the final segment: drop it on disk too.
			if err := os.Truncate(path, off); err != nil {
				return 0, false, fmt.Errorf("store: truncating torn tail: %w", err)
			}
			return off, true, nil
		}
		if err := w.applyRecord(payload); err != nil {
			return 0, false, fmt.Errorf("store: %s: %w", path, err)
		}
		off = next
	}
}

// nextRecord decodes the record framed at off; ok is false at a clean
// end of data or any framing/CRC violation.
func nextRecord(data []byte, off int64) (payload []byte, next int64, ok bool) {
	if off+walFrameLen > int64(len(data)) {
		return nil, 0, false
	}
	n := int64(binary.BigEndian.Uint32(data[off:]))
	if n == 0 || n > walMaxPayload || off+walFrameLen+n > int64(len(data)) {
		return nil, 0, false
	}
	want := binary.BigEndian.Uint32(data[off+4:])
	payload = data[off+walFrameLen : off+walFrameLen+n]
	if crc32.Checksum(payload, walCRC) != want {
		return nil, 0, false
	}
	return payload, off + walFrameLen + n, true
}

// applyRecord folds one decoded payload into the state mirror.
func (w *WAL) applyRecord(p []byte) error {
	switch p[0] {
	case recCircuit:
		digest, rest, err := readDigest(p[1:])
		if err != nil {
			return err
		}
		blob, _, err := readBytes32(rest)
		if err != nil {
			return err
		}
		w.st.putCircuit(digest, blob)
	case recSubmit:
		j, err := decodeSubmit(p[1:])
		if err != nil {
			return err
		}
		// A streamed submit (nil witness) whose chunks were lost to a
		// torn tail cannot be rebuilt — but chunks are written strictly
		// before the submit record, so a valid submit implies its chunks
		// replayed first. Treat a miss as corruption.
		if err := w.st.submit(j); err != nil {
			return err
		}
	case recChunk:
		id, rest, err := readString16(p[1:])
		if err != nil {
			return err
		}
		chunk, _, err := readBytes32(rest)
		if err != nil {
			return err
		}
		w.st.appendChunk(id, chunk)
	case recClaim:
		if _, _, err := readString16(p[1:]); err != nil {
			return err
		}
		// A claim marked a job a shard had picked up. Only older
		// daemons wrote them, and they change nothing: a job is pending
		// until its terminal record.
	case recDone:
		r, err := decodeDone(p[1:])
		if err != nil {
			return err
		}
		w.st.complete(r)
	case recFail:
		id, rest, err := readString16(p[1:])
		if err != nil {
			return err
		}
		msg, _, err := readString16(rest)
		if err != nil {
			return err
		}
		w.st.fail(Failure{ID: id, Msg: msg})
	default:
		return fmt.Errorf("unknown record type %d", p[0])
	}
	return nil
}

// openActive starts a fresh active segment after the highest replayed
// one. Always starting a new segment keeps the torn-tail rule simple:
// only the file this process appends to can have a torn tail.
func (w *WAL) openActive() error {
	w.actSeq++
	f, err := os.OpenFile(w.segPath(w.actSeq), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	var hdr [walHeaderLen]byte
	binary.BigEndian.PutUint32(hdr[:4], walMagic)
	hdr[4] = walVersion
	if _, err := f.Write(hdr[:]); err != nil {
		f.Close()
		return fmt.Errorf("store: %w", err)
	}
	w.active = f
	w.actSize = walHeaderLen
	w.total += walHeaderLen
	w.stats.Segments++
	return syncDir(w.cfg.Dir)
}

// append frames, checksums and writes one record payload under the lock,
// then applies it to the mirror and runs the rotate/compact policy. It is
// appendApplying with the mirror fed by decoding the payload.
func (w *WAL) append(payload []byte) error {
	return w.appendApplying(payload, func() error { return w.applyRecord(payload) })
}

// appendApplying is append with apply folding the record into the mirror:
// a caller that holds the decoded record hands it over instead of having
// the payload decoded, and copied, again. It syncs nothing but a segment
// it seals: an acknowledging call syncs once after its last record
// (syncLocked), and that fsync covers the streamed chunk records before
// them too.
func (w *WAL) appendApplying(payload []byte, apply func() error) error {
	if w.closed {
		return ErrClosed
	}
	frame := make([]byte, walFrameLen+len(payload))
	binary.BigEndian.PutUint32(frame, uint32(len(payload)))
	binary.BigEndian.PutUint32(frame[4:], crc32.Checksum(payload, walCRC))
	copy(frame[walFrameLen:], payload)
	if _, err := w.active.Write(frame); err != nil {
		return fmt.Errorf("store: append: %w", err)
	}
	w.actSize += int64(len(frame))
	w.total += int64(len(frame))
	w.stats.Appends++
	if err := apply(); err != nil {
		return err
	}
	w.dirty = true
	if w.actSize >= w.cfg.SegmentBytes {
		if err := w.rotateLocked(); err != nil {
			return err
		}
	}
	if w.total >= w.cfg.CompactMinBytes && w.total >= 4*w.liveEst {
		return w.compactLocked()
	}
	return nil
}

// rotateLocked seals the active segment and opens the next.
func (w *WAL) rotateLocked() error {
	if err := w.active.Sync(); err != nil {
		return fmt.Errorf("store: sync on rotate: %w", err)
	}
	w.stats.Syncs++
	w.dirty = false
	if err := w.active.Close(); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return w.openActive()
}

// estimateLive sizes the snapshot the current state would produce.
func (w *WAL) estimateLive() int64 {
	var n int64
	for _, blob := range w.st.circuits {
		n += int64(len(blob)) + 64
	}
	for _, j := range w.st.pending {
		n += int64(len(j.Witness)+len(j.ID)+len(j.Tenant)) + 64
	}
	for _, r := range w.st.done {
		n += int64(len(r.Proof)+32*len(r.PublicInputs)+len(r.ID)) + 64
	}
	for _, f := range w.st.failed {
		n += int64(len(f.ID)+len(f.Msg)) + 32
	}
	for _, c := range w.st.chunks {
		n += int64(len(c)) + 32
	}
	return n
}

// compactLocked rewrites the live state as a snapshot segment and
// deletes everything older. Appends are paused for the duration (the
// caller holds the lock); the snapshot is fsynced before any deletion,
// so a crash at any point leaves a replayable log — replaying a
// snapshot after the older segments it duplicates is idempotent.
func (w *WAL) compactLocked() error {
	if err := w.rotateLocked(); err != nil { // seal current appends first
		return err
	}
	// The fresh active segment becomes the snapshot target; everything
	// strictly older is deleted after the snapshot is stable.
	snapSeq := w.actSeq
	for _, rec := range w.snapshotRecords() {
		frame := make([]byte, walFrameLen+len(rec))
		binary.BigEndian.PutUint32(frame, uint32(len(rec)))
		binary.BigEndian.PutUint32(frame[4:], crc32.Checksum(rec, walCRC))
		copy(frame[walFrameLen:], rec)
		if _, err := w.active.Write(frame); err != nil {
			return fmt.Errorf("store: compact: %w", err)
		}
		w.actSize += int64(len(frame))
	}
	if err := w.active.Sync(); err != nil {
		return fmt.Errorf("store: compact sync: %w", err)
	}
	w.stats.Syncs++
	w.dirty = false
	seqs, err := w.segments()
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	removed := 0
	for _, seq := range seqs {
		if seq < snapSeq {
			if err := os.Remove(w.segPath(seq)); err != nil {
				return fmt.Errorf("store: compact remove: %w", err)
			}
			removed++
		}
	}
	if err := syncDir(w.cfg.Dir); err != nil {
		return err
	}
	w.total = w.actSize
	w.stats.Segments -= removed
	w.stats.Compactions++
	w.liveEst = w.estimateLive()
	return nil
}

// snapshotRecords encodes the live state as replayable records: circuits
// first (submits reference them), then pending submits in order, then
// retained terminal records, then any half-streamed chunks.
func (w *WAL) snapshotRecords() [][]byte {
	var out [][]byte
	for digest, blob := range w.st.circuits {
		out = append(out, encodeCircuit(digest, blob))
	}
	for _, id := range w.st.order {
		if j := w.st.pending[id]; j != nil {
			out = append(out, encodeSubmit(*j))
		}
	}
	for _, id := range w.st.doneOrder {
		if r, ok := w.st.done[id]; ok {
			out = append(out, encodeDone(r))
		}
		if f, ok := w.st.failed[id]; ok {
			out = append(out, encodeFail(f.ID, f.Msg))
		}
	}
	for id, chunk := range w.st.chunks {
		if len(chunk) > 0 {
			out = append(out, encodeChunk(id, chunk))
		}
	}
	return out
}

// Compact forces a snapshot rewrite regardless of thresholds.
func (w *WAL) Compact() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return ErrClosed
	}
	return w.compactLocked()
}

func (w *WAL) PutCircuit(digest [32]byte, blob []byte) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if _, ok := w.st.circuits[digest]; ok {
		return nil // already durable; don't re-log multi-MiB blobs
	}
	w.liveEst += int64(len(blob)) + 64
	if err := w.append(encodeCircuit(digest, blob)); err != nil {
		return err
	}
	return w.syncLocked()
}

func (w *WAL) Submit(j JobRecord) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return ErrClosed
	}
	// A streamed submit with no chunks to adopt must not reach the log:
	// replay would reject the record as corruption and the WAL would no
	// longer open. That includes an upload that has logged no bytes yet,
	// such as one whose writer still buffers them unclosed.
	if j.Witness == nil && len(w.st.chunks[j.ID]) == 0 {
		return fmt.Errorf("store: submit %s: no streamed witness", j.ID)
	}
	w.liveEst += int64(len(j.Witness)+len(j.ID)) + 64
	if err := w.append(encodeSubmit(j)); err != nil {
		return err
	}
	return w.syncLocked()
}

// walChunkBytes is the largest chunk record a witness upload writes.
// Callers may Write any sizes (the stream decoder writes 32-byte field
// elements); walChunkWriter coalesces them, so an upload costs
// ⌈bytes / walChunkBytes⌉ appends whatever its callers read.
const walChunkBytes = 64 << 10

// walChunkWriter buffers an upload and appends it as recChunk records
// of walChunkBytes; Close appends the tail. Chunk records are not synced:
// nothing about an upload is acknowledged before the submit that adopts
// it, and that submit is appended after them in the same log (or after a
// rotation, whose sync covers them), so its fsync covers them too.
type walChunkWriter struct {
	w   *WAL
	id  string
	buf []byte
	err error // first failed append; every later call returns it
}

func (cw *walChunkWriter) Write(p []byte) (int, error) {
	if cw.err != nil {
		return 0, cw.err
	}
	n := len(p)
	for len(p) > 0 {
		k := min(len(p), walChunkBytes-len(cw.buf))
		cw.buf = append(cw.buf, p[:k]...)
		p = p[k:]
		if len(cw.buf) == walChunkBytes {
			if err := cw.flush(); err != nil {
				return n - len(p), err
			}
		}
	}
	return n, nil
}

// flush appends the buffered bytes as one chunk record. An upload that
// was discarded or adopted meanwhile has no mirror entry; its bytes are
// dropped rather than logged as an orphan.
func (cw *walChunkWriter) flush() error {
	if len(cw.buf) == 0 {
		return nil
	}
	w := cw.w
	w.mu.Lock()
	defer w.mu.Unlock()
	if _, ok := w.st.chunks[cw.id]; ok {
		w.liveEst += int64(len(cw.buf)) + 32
		if err := w.append(encodeChunk(cw.id, cw.buf)); err != nil {
			cw.err = err
			return err
		}
	}
	cw.buf = cw.buf[:0]
	return nil
}

func (cw *walChunkWriter) Close() error {
	if cw.err != nil {
		return cw.err
	}
	return cw.flush()
}

func (w *WAL) WitnessWriter(id string) (io.WriteCloser, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil, ErrClosed
	}
	w.st.chunks[id] = nil
	return &walChunkWriter{w: w, id: id}, nil
}

// DiscardWitness drops an aborted upload's chunks from the mirror; the
// logged chunk records die at the next compaction (replay drops chunks
// with no adopting submit anyway).
func (w *WAL) DiscardWitness(id string) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.liveEst -= int64(len(w.st.chunks[id]))
	delete(w.st.chunks, id)
	return nil
}

// Complete records one job's successful result: Finish of one result.
func (w *WAL) Complete(r Result) error {
	return w.Finish([]Result{r}, nil)
}

// Finish appends a done record per result and a fail record per failure
// and returns after one fsync covering them all. The WAL may retain each
// result's Proof and PublicInputs rather than copy them, so the caller
// must not modify them afterwards.
func (w *WAL) Finish(done []Result, failed []Failure) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return ErrClosed
	}
	for _, r := range done {
		if j := w.st.pending[r.ID]; j != nil {
			w.liveEst -= int64(len(j.Witness)) // witness no longer live
		}
		w.liveEst += int64(len(r.Proof)+32*len(r.PublicInputs)) + 64
		// The mirror keeps r itself: its proof is the blob the caller
		// already retains for polling, so re-decoding the record would
		// hold a copy.
		if err := w.appendApplying(encodeDone(r), func() error {
			w.st.complete(r)
			return nil
		}); err != nil {
			return err
		}
	}
	for _, f := range failed {
		if j := w.st.pending[f.ID]; j != nil {
			w.liveEst -= int64(len(j.Witness))
		}
		if err := w.append(encodeFail(f.ID, f.Msg)); err != nil {
			return err
		}
	}
	return w.syncLocked()
}

func (w *WAL) State() State {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.st.snapshot()
}

// Stats snapshots the log's counters.
func (w *WAL) Stats() WALStats {
	w.mu.Lock()
	defer w.mu.Unlock()
	st := w.stats
	st.LogBytes = w.total
	return st
}

// syncLocked fsyncs the active segment if anything was appended since the
// last sync.
func (w *WAL) syncLocked() error {
	if !w.dirty {
		return nil
	}
	if err := w.active.Sync(); err != nil {
		return fmt.Errorf("store: sync: %w", err)
	}
	w.stats.Syncs++
	w.dirty = false
	return nil
}

// Close syncs any records written since the last fsync and closes the
// log; later appends get ErrClosed.
func (w *WAL) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil
	}
	w.closed = true
	err := w.syncLocked()
	if cerr := w.active.Close(); err == nil {
		err = cerr
	}
	return err
}

// syncDir fsyncs a directory so created/removed segment files are
// durable. Best-effort on platforms where directories cannot be synced.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return nil
	}
	defer d.Close()
	d.Sync() // some filesystems reject directory fsync; that's fine
	return nil
}

// ---- record encoding ----
//
// Fields are big-endian. Strings and short blobs carry u16 lengths,
// witness/proof/circuit blobs u32. Every decoder below is also the fuzz
// target's surface: it must reject, never panic, on arbitrary bytes.

func appendString16(b []byte, s string) []byte {
	b = binary.BigEndian.AppendUint16(b, uint16(len(s)))
	return append(b, s...)
}

func appendBytes32(b, p []byte) []byte {
	b = binary.BigEndian.AppendUint32(b, uint32(len(p)))
	return append(b, p...)
}

func readString16(b []byte) (string, []byte, error) {
	if len(b) < 2 {
		return "", nil, errors.New("short string length")
	}
	n := int(binary.BigEndian.Uint16(b))
	if len(b) < 2+n {
		return "", nil, errors.New("short string")
	}
	return string(b[2 : 2+n]), b[2+n:], nil
}

func readBytes32(b []byte) ([]byte, []byte, error) {
	if len(b) < 4 {
		return nil, nil, errors.New("short blob length")
	}
	n := int64(binary.BigEndian.Uint32(b))
	if int64(len(b)) < 4+n {
		return nil, nil, errors.New("short blob")
	}
	// Copy out of the replay buffer so retained records don't pin it.
	out := make([]byte, n)
	copy(out, b[4:4+n])
	return out, b[4+n:], nil
}

func readDigest(b []byte) ([32]byte, []byte, error) {
	var d [32]byte
	if len(b) < 32 {
		return d, nil, errors.New("short digest")
	}
	copy(d[:], b)
	return d, b[32:], nil
}

func encodeCircuit(digest [32]byte, blob []byte) []byte {
	b := make([]byte, 0, 1+32+4+len(blob))
	b = append(b, recCircuit)
	b = append(b, digest[:]...)
	return appendBytes32(b, blob)
}

func encodeSubmit(j JobRecord) []byte {
	b := make([]byte, 0, 64+len(j.ID)+len(j.Tenant)+len(j.Witness))
	b = append(b, recSubmit)
	b = appendString16(b, j.ID)
	b = appendString16(b, j.Tenant)
	b = append(b, j.Circuit[:]...)
	// The byte after the digest once held a queue priority and is now
	// reserved: written as 1, which older daemons replay as "normal",
	// and skipped on decode whatever its value.
	b = append(b, 1)
	if j.Witness == nil {
		b = append(b, 1) // streamed: adopt chunks
		return b
	}
	b = append(b, 0)
	return appendBytes32(b, j.Witness)
}

func decodeSubmit(b []byte) (JobRecord, error) {
	var j JobRecord
	var err error
	if j.ID, b, err = readString16(b); err != nil {
		return j, err
	}
	if j.Tenant, b, err = readString16(b); err != nil {
		return j, err
	}
	if j.Circuit, b, err = readDigest(b); err != nil {
		return j, err
	}
	if len(b) < 2 {
		return j, errors.New("short submit")
	}
	streamed := b[1] == 1
	b = b[2:]
	if streamed {
		if len(b) != 0 {
			return j, errors.New("trailing bytes after streamed submit")
		}
		return j, nil // nil Witness → adopt chunks
	}
	if j.Witness, b, err = readBytes32(b); err != nil {
		return j, err
	}
	if j.Witness == nil {
		j.Witness = []byte{}
	}
	if len(b) != 0 {
		return j, errors.New("trailing bytes after submit")
	}
	return j, nil
}

func encodeChunk(id string, chunk []byte) []byte {
	b := make([]byte, 0, 8+len(id)+len(chunk))
	b = append(b, recChunk)
	b = appendString16(b, id)
	return appendBytes32(b, chunk)
}

func encodeDone(r Result) []byte {
	b := make([]byte, 0, 64+len(r.ID)+len(r.Proof)+32*len(r.PublicInputs))
	b = append(b, recDone)
	b = appendString16(b, r.ID)
	b = append(b, r.Circuit[:]...)
	b = binary.BigEndian.AppendUint64(b, uint64(r.ProverNS))
	b = appendBytes32(b, r.Proof)
	b = binary.BigEndian.AppendUint16(b, uint16(len(r.PublicInputs)))
	for _, p := range r.PublicInputs {
		b = append(b, p...)
	}
	return b
}

func decodeDone(b []byte) (Result, error) {
	var r Result
	var err error
	if r.ID, b, err = readString16(b); err != nil {
		return r, err
	}
	if r.Circuit, b, err = readDigest(b); err != nil {
		return r, err
	}
	if len(b) < 8 {
		return r, errors.New("short done record")
	}
	r.ProverNS = int64(binary.BigEndian.Uint64(b))
	b = b[8:]
	if r.Proof, b, err = readBytes32(b); err != nil {
		return r, err
	}
	if len(b) < 2 {
		return r, errors.New("short public-input count")
	}
	n := int(binary.BigEndian.Uint16(b))
	b = b[2:]
	if len(b) != 32*n {
		return r, errors.New("public-input size mismatch")
	}
	r.PublicInputs = make([][]byte, n)
	for i := 0; i < n; i++ {
		r.PublicInputs[i] = append([]byte(nil), b[32*i:32*i+32]...)
	}
	return r, nil
}

func encodeFail(id, msg string) []byte {
	b := make([]byte, 0, 8+len(id)+len(msg))
	b = append(b, recFail)
	b = appendString16(b, id)
	return appendString16(b, msg)
}
