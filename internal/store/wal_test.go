package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

func digestOf(b byte) (d [32]byte) {
	for i := range d {
		d[i] = b
	}
	return d
}

func mustOpen(t *testing.T, cfg WALConfig) *WAL {
	t.Helper()
	w, err := OpenWAL(cfg)
	if err != nil {
		t.Fatalf("OpenWAL: %v", err)
	}
	return w
}

// TestMemLifecycle walks one job through each terminal transition and
// reads the result back from the WAL's in-memory state, without a
// replay; after Close every append is refused.
func TestMemLifecycle(t *testing.T) {
	w := mustOpen(t, WALConfig{Dir: t.TempDir()})
	d := digestOf(1)
	if err := w.PutCircuit(d, []byte("circuit")); err != nil {
		t.Fatal(err)
	}
	if err := w.Submit(JobRecord{ID: "job-1", Circuit: d, Witness: []byte("wit")}); err != nil {
		t.Fatal(err)
	}
	if err := w.Complete(Result{ID: "job-1", Proof: []byte("proof"), ProverNS: 7}); err != nil {
		t.Fatal(err)
	}
	if err := w.Submit(JobRecord{ID: "job-2", Circuit: d, Witness: []byte("w2")}); err != nil {
		t.Fatal(err)
	}
	if err := w.Finish(nil, []Failure{{ID: "job-2", Msg: "rejected"}}); err != nil {
		t.Fatal(err)
	}
	st := w.State()
	if len(st.Pending) != 0 || len(st.Done) != 1 || len(st.Failed) != 1 {
		t.Fatalf("state = %d pending / %d done / %d failed", len(st.Pending), len(st.Done), len(st.Failed))
	}
	if !bytes.Equal(st.Done["job-1"].Proof, []byte("proof")) {
		t.Fatal("proof mismatch")
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Submit(JobRecord{ID: "job-3"}); err != ErrClosed {
		t.Fatalf("submit after close = %v, want ErrClosed", err)
	}
}

// TestMemStreamedWitness: streamed chunks assemble into the submitted
// witness, and an aborted upload is never adopted — the refused submit
// leaves nothing in the log that would stop a later replay. A 200 KiB
// upload written one byte at a time costs at most 4 chunk records and
// no fsync until the submit that adopts it.
func TestMemStreamedWitness(t *testing.T) {
	dir := t.TempDir()
	w := mustOpen(t, WALConfig{Dir: dir})
	cw, err := w.WitnessWriter("job-1")
	if err != nil {
		t.Fatal(err)
	}
	cw.Write([]byte("abc"))
	cw.Write([]byte("def"))
	cw.Close()
	if err := w.Submit(JobRecord{ID: "job-1", Circuit: digestOf(2)}); err != nil {
		t.Fatal(err)
	}
	st := w.State()
	if len(st.Pending) != 1 || !bytes.Equal(st.Pending[0].Witness, []byte("abcdef")) {
		t.Fatalf("streamed witness not assembled: %+v", st.Pending)
	}

	cw2, _ := w.WitnessWriter("job-2")
	cw2.Write([]byte("junk"))
	w.DiscardWitness("job-2")
	if err := w.Submit(JobRecord{ID: "job-2", Circuit: digestOf(2)}); err == nil {
		t.Fatal("submit adopted discarded witness")
	}
	cw3, _ := w.WitnessWriter("job-3")
	cw3.Close()
	if err := w.Submit(JobRecord{ID: "job-3", Circuit: digestOf(2)}); err == nil {
		t.Fatal("submit adopted an upload that logged no bytes")
	}

	big := make([]byte, 200<<10)
	for i := range big {
		big[i] = byte(i * 7)
	}
	before := w.Stats()
	cw4, _ := w.WitnessWriter("job-4")
	for i := range big {
		if _, err := cw4.Write(big[i : i+1]); err != nil {
			t.Fatal(err)
		}
	}
	if err := cw4.Close(); err != nil {
		t.Fatal(err)
	}
	mid := w.Stats()
	if n := mid.Appends - before.Appends; n > 4 {
		t.Fatalf("200 KiB upload took %d chunk records, want <= 4", n)
	}
	if mid.Syncs != before.Syncs {
		t.Fatalf("chunk records fsynced %d times before their submit", mid.Syncs-before.Syncs)
	}
	if err := w.Submit(JobRecord{ID: "job-4", Circuit: digestOf(2)}); err != nil {
		t.Fatal(err)
	}
	if got := w.Stats().Syncs - mid.Syncs; got != 1 {
		t.Fatalf("adopting submit fsynced %d times, want 1", got)
	}
	w.Close()
	r := mustOpen(t, WALConfig{Dir: dir})
	defer r.Close()
	st = r.State()
	if len(st.Pending) != 2 || st.Pending[0].ID != "job-1" || st.Pending[1].ID != "job-4" {
		t.Fatalf("replay after refused submits: %+v", st.Pending)
	}
	if !bytes.Equal(st.Pending[1].Witness, big) {
		t.Fatal("replay assembled different bytes for the 200 KiB upload")
	}
}

func TestWALRoundtrip(t *testing.T) {
	dir := t.TempDir()
	w := mustOpen(t, WALConfig{Dir: dir})
	d := digestOf(3)
	if err := w.PutCircuit(d, []byte("zksc-blob")); err != nil {
		t.Fatal(err)
	}
	if err := w.PutCircuit(d, []byte("zksc-blob")); err != nil { // idempotent
		t.Fatal(err)
	}
	if err := w.Submit(JobRecord{ID: "job-a", Tenant: "acme", Circuit: d, Witness: []byte("wa")}); err != nil {
		t.Fatal(err)
	}
	if err := w.Submit(JobRecord{ID: "job-b", Circuit: d, Witness: []byte("wb")}); err != nil {
		t.Fatal(err)
	}
	if err := w.Submit(JobRecord{ID: "job-c", Circuit: d, Witness: []byte("wc")}); err != nil {
		t.Fatal(err)
	}
	// job-a completes; job-b never finishes (crash window); job-c fails
	// terminally.
	if err := w.Complete(Result{ID: "job-a", Proof: []byte("pa"), PublicInputs: [][]byte{make([]byte, 32)}, ProverNS: 42}); err != nil {
		t.Fatal(err)
	}
	if err := w.Finish(nil, []Failure{{ID: "job-c", Msg: "bad witness"}}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	r := mustOpen(t, WALConfig{Dir: dir})
	defer r.Close()
	st := r.State()
	if !bytes.Equal(st.Circuits[d], []byte("zksc-blob")) {
		t.Fatal("circuit lost")
	}
	if len(st.Pending) != 1 || st.Pending[0].ID != "job-b" {
		t.Fatalf("pending = %+v, want unfinished job-b", st.Pending)
	}
	if st.Pending[0].Tenant != "" || !bytes.Equal(st.Pending[0].Witness, []byte("wb")) {
		t.Fatalf("job-b fields mangled: %+v", st.Pending[0])
	}
	got := st.Done["job-a"]
	if !bytes.Equal(got.Proof, []byte("pa")) || got.ProverNS != 42 || len(got.PublicInputs) != 1 {
		t.Fatalf("done record mangled: %+v", got)
	}
	if st.Failed["job-c"].Msg != "bad witness" {
		t.Fatalf("failed record mangled: %+v", st.Failed["job-c"])
	}
	stats := r.Stats()
	if stats.RecoveredPending != 1 || stats.RecoveredDone != 1 || stats.RecoveredFailed != 1 || stats.RecoveredCircuits != 1 {
		t.Fatalf("recovery stats: %+v", stats)
	}
	if stats.TruncatedTail {
		t.Fatal("clean log reported torn tail")
	}
}

// TestWALCompleteKeepsCallerProof: the live mirror keeps the caller's
// proof bytes instead of a decoded copy (the caller retains the same blob
// for polling), and a reopen replays them byte-identical from the log.
func TestWALCompleteKeepsCallerProof(t *testing.T) {
	dir := t.TempDir()
	w := mustOpen(t, WALConfig{Dir: dir})
	d := digestOf(5)
	if err := w.Submit(JobRecord{ID: "job-a", Circuit: d, Witness: []byte("wa")}); err != nil {
		t.Fatal(err)
	}
	proof := bytes.Repeat([]byte("proof"), 100)
	want := bytes.Clone(proof)
	if err := w.Complete(Result{ID: "job-a", Circuit: d, Proof: proof, ProverNS: 7}); err != nil {
		t.Fatal(err)
	}
	w.mu.Lock()
	kept := w.st.done["job-a"].Proof
	w.mu.Unlock()
	if len(kept) != len(proof) || &kept[0] != &proof[0] {
		t.Fatal("the mirror holds a copy of the proof, not the caller's bytes")
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r := mustOpen(t, WALConfig{Dir: dir})
	defer r.Close()
	if got := r.State().Done["job-a"]; !bytes.Equal(got.Proof, want) || got.ProverNS != 7 {
		t.Fatalf("replayed result %+v, want the completed proof", got)
	}
}

func TestWALStreamedWitnessSurvivesReplay(t *testing.T) {
	dir := t.TempDir()
	w := mustOpen(t, WALConfig{Dir: dir})
	cw, err := w.WitnessWriter("job-s")
	if err != nil {
		t.Fatal(err)
	}
	cw.Write([]byte("stream"))
	cw.Write([]byte("-ed"))
	cw.Close()
	if err := w.Submit(JobRecord{ID: "job-s", Circuit: digestOf(4)}); err != nil {
		t.Fatal(err)
	}
	// A second upload dies before Submit — must vanish on replay.
	cw2, _ := w.WitnessWriter("job-t")
	cw2.Write([]byte("orphan"))
	w.Close()

	r := mustOpen(t, WALConfig{Dir: dir})
	defer r.Close()
	st := r.State()
	if len(st.Pending) != 1 || !bytes.Equal(st.Pending[0].Witness, []byte("stream-ed")) {
		t.Fatalf("streamed witness not recovered: %+v", st.Pending)
	}
}

func TestWALTornTail(t *testing.T) {
	dir := t.TempDir()
	w := mustOpen(t, WALConfig{Dir: dir})
	d := digestOf(5)
	if err := w.Submit(JobRecord{ID: "job-1", Circuit: d, Witness: []byte("w1")}); err != nil {
		t.Fatal(err)
	}
	w.Close()

	// Simulate a crash mid-append: garbage bytes after the last record.
	segs, err := filepath.Glob(filepath.Join(dir, "seg-*.wal"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("segments: %v %v", segs, err)
	}
	last := segs[len(segs)-1]
	f, err := os.OpenFile(last, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{0x00, 0x00, 0x00, 0x10, 0xde, 0xad}) // truncated frame
	f.Close()

	r := mustOpen(t, WALConfig{Dir: dir})
	defer r.Close()
	if !r.Stats().TruncatedTail {
		t.Fatal("torn tail not reported")
	}
	st := r.State()
	if len(st.Pending) != 1 || st.Pending[0].ID != "job-1" {
		t.Fatalf("records before torn tail lost: %+v", st.Pending)
	}
}

func TestWALCorruptEarlierSegmentRejected(t *testing.T) {
	dir := t.TempDir()
	w := mustOpen(t, WALConfig{Dir: dir})
	w.Submit(JobRecord{ID: "job-1", Circuit: digestOf(6), Witness: []byte("w")})
	w.Close()
	// Reopen creates a fresh later segment, making the first non-final.
	w2 := mustOpen(t, WALConfig{Dir: dir})
	w2.Submit(JobRecord{ID: "job-2", Circuit: digestOf(6), Witness: []byte("w")})
	w2.Close()

	segs, _ := filepath.Glob(filepath.Join(dir, "seg-*.wal"))
	if len(segs) < 2 {
		t.Fatalf("want ≥2 segments, got %v", segs)
	}
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff // flip a payload byte → CRC mismatch
	if err := os.WriteFile(segs[0], data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenWAL(WALConfig{Dir: dir}); err == nil {
		t.Fatal("corruption in a non-final segment must be an error")
	}
}

func TestWALCompaction(t *testing.T) {
	dir := t.TempDir()
	w := mustOpen(t, WALConfig{Dir: dir, CompactMinBytes: 1 << 40}) // no auto
	d := digestOf(7)
	w.PutCircuit(d, []byte("blob"))
	big := bytes.Repeat([]byte("x"), 4096)
	for i := 0; i < 64; i++ {
		id := fmt.Sprintf("job-%03d", i)
		if err := w.Submit(JobRecord{ID: id, Circuit: d, Witness: big}); err != nil {
			t.Fatal(err)
		}
		if i%2 == 0 {
			if err := w.Complete(Result{ID: id, Proof: []byte("p")}); err != nil {
				t.Fatal(err)
			}
		}
	}
	before := w.Stats().LogBytes
	if err := w.Compact(); err != nil {
		t.Fatal(err)
	}
	stats := w.Stats()
	if stats.Compactions != 1 {
		t.Fatalf("compactions = %d", stats.Compactions)
	}
	// Completed jobs' witnesses drop out of the log, so it must shrink.
	if stats.LogBytes >= before {
		t.Fatalf("log did not shrink: %d → %d", before, stats.LogBytes)
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "seg-*.wal"))
	if len(segs) != 1 {
		t.Fatalf("old segments not removed: %v", segs)
	}
	want := w.State()
	w.Close()

	r := mustOpen(t, WALConfig{Dir: dir})
	defer r.Close()
	got := r.State()
	if len(got.Pending) != len(want.Pending) || len(got.Done) != len(want.Done) {
		t.Fatalf("post-compaction replay: %d/%d pending, %d/%d done",
			len(got.Pending), len(want.Pending), len(got.Done), len(want.Done))
	}
	for i := range want.Pending {
		if got.Pending[i].ID != want.Pending[i].ID || !bytes.Equal(got.Pending[i].Witness, want.Pending[i].Witness) {
			t.Fatalf("pending[%d] mismatch after compaction", i)
		}
	}
}

// TestWALCrashBetweenSnapshotAndDelete restores the pre-compaction
// segments next to the snapshot — the on-disk picture when a crash lands
// after the snapshot fsync but before the old segments are removed — and
// checks the double replay is idempotent.
func TestWALCrashBetweenSnapshotAndDelete(t *testing.T) {
	dir := t.TempDir()
	w := mustOpen(t, WALConfig{Dir: dir, CompactMinBytes: 1 << 40})
	d := digestOf(8)
	w.PutCircuit(d, []byte("blob"))
	for i := 0; i < 8; i++ {
		id := fmt.Sprintf("job-%03d", i)
		w.Submit(JobRecord{ID: id, Circuit: d, Witness: []byte("witness")})
		if i < 4 {
			w.Complete(Result{ID: id, Proof: []byte("proof"), ProverNS: int64(i)})
		}
	}
	// Stash the pre-compaction segments.
	stash := t.TempDir()
	segs, _ := filepath.Glob(filepath.Join(dir, "seg-*.wal"))
	for _, s := range segs {
		data, err := os.ReadFile(s)
		if err != nil {
			t.Fatal(err)
		}
		os.WriteFile(filepath.Join(stash, filepath.Base(s)), data, 0o644)
	}
	if err := w.Compact(); err != nil {
		t.Fatal(err)
	}
	want := w.State()
	w.Close()
	// Resurrect the old segments beside the snapshot.
	stashed, _ := filepath.Glob(filepath.Join(stash, "seg-*.wal"))
	for _, s := range stashed {
		data, _ := os.ReadFile(s)
		if err := os.WriteFile(filepath.Join(dir, filepath.Base(s)), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	r := mustOpen(t, WALConfig{Dir: dir})
	defer r.Close()
	got := r.State()
	if len(got.Pending) != len(want.Pending) || len(got.Done) != len(want.Done) || len(got.Failed) != len(want.Failed) {
		t.Fatalf("double replay diverged: %d/%d pending, %d/%d done",
			len(got.Pending), len(want.Pending), len(got.Done), len(want.Done))
	}
	for id, res := range want.Done {
		if !bytes.Equal(got.Done[id].Proof, res.Proof) {
			t.Fatalf("done[%s] proof changed across double replay", id)
		}
	}
}

func TestWALAutoCompactAndRotation(t *testing.T) {
	dir := t.TempDir()
	w := mustOpen(t, WALConfig{Dir: dir, SegmentBytes: 8 << 10, CompactMinBytes: 32 << 10})
	d := digestOf(9)
	w.PutCircuit(d, []byte("blob"))
	wit := bytes.Repeat([]byte("y"), 1024)
	for i := 0; i < 256; i++ {
		id := fmt.Sprintf("job-%04d", i)
		if err := w.Submit(JobRecord{ID: id, Circuit: d, Witness: wit}); err != nil {
			t.Fatal(err)
		}
		if err := w.Complete(Result{ID: id, Proof: []byte("p")}); err != nil {
			t.Fatal(err)
		}
	}
	stats := w.Stats()
	if stats.Compactions == 0 {
		t.Fatal("auto-compaction never triggered")
	}
	// Terminal-record retention defaults to 1024 so all 256 survive; the
	// log must stay bounded near the live set, not grow with history.
	if stats.LogBytes > 8<<20 {
		t.Fatalf("log unbounded: %d bytes", stats.LogBytes)
	}
	w.Close()
	r := mustOpen(t, WALConfig{Dir: dir})
	defer r.Close()
	if n := len(r.State().Done); n != 256 {
		t.Fatalf("done = %d, want 256", n)
	}
}

func TestWALRetentionEviction(t *testing.T) {
	dir := t.TempDir()
	w := mustOpen(t, WALConfig{Dir: dir, Retention: 4})
	d := digestOf(10)
	for i := 0; i < 10; i++ {
		id := fmt.Sprintf("job-%03d", i)
		w.Submit(JobRecord{ID: id, Circuit: d, Witness: []byte("w")})
		w.Complete(Result{ID: id, Proof: []byte("p")})
	}
	w.Close()
	r := mustOpen(t, WALConfig{Dir: dir, Retention: 4})
	defer r.Close()
	st := r.State()
	if len(st.Done) != 4 {
		t.Fatalf("retention kept %d done records, want 4", len(st.Done))
	}
	if _, ok := st.Done["job-009"]; !ok {
		t.Fatal("newest record evicted instead of oldest")
	}
}

// TestWALSyncsEveryCall: each call that acknowledges records returns
// after exactly one fsync, whatever the number of records it writes.
func TestWALSyncsEveryCall(t *testing.T) {
	w := mustOpen(t, WALConfig{Dir: t.TempDir()})
	defer w.Close()
	d := digestOf(11)
	for _, c := range []struct {
		name string
		call func() error
	}{
		{"PutCircuit", func() error { return w.PutCircuit(d, []byte("blob")) }},
		{"Submit", func() error { return w.Submit(JobRecord{ID: "job-1", Circuit: d, Witness: []byte("w")}) }},
		{"Submit", func() error { return w.Submit(JobRecord{ID: "job-2", Circuit: d, Witness: []byte("w")}) }},
		{"Submit", func() error { return w.Submit(JobRecord{ID: "job-3", Circuit: d, Witness: []byte("w")}) }},
		{"Complete", func() error { return w.Complete(Result{ID: "job-1", Circuit: d, Proof: []byte("p")}) }},
		{"Finish", func() error {
			return w.Finish([]Result{{ID: "job-2", Circuit: d, Proof: []byte("p")}}, []Failure{{ID: "job-3", Msg: "rejected"}})
		}},
	} {
		before := w.Stats()
		if err := c.call(); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		after := w.Stats()
		if after.Syncs != before.Syncs+1 {
			t.Fatalf("%s after %d appends: %d fsyncs, want 1", c.name, after.Appends-before.Appends, after.Syncs-before.Syncs)
		}
	}
}

// TestWALSyncModes: the WAL has one sync mode left, the per-record rule
// once selected by a zero sync interval. A record Submit acknowledged is
// in the segment files before Close: a copy of the directory taken while
// the WAL is still open, as a killed process would leave it, replays it.
func TestWALSyncModes(t *testing.T) {
	t.Run("interval=0", func(t *testing.T) {
		dir := t.TempDir()
		w := mustOpen(t, WALConfig{Dir: dir})
		defer w.Close()
		if err := w.Submit(JobRecord{ID: "job-1", Circuit: digestOf(11), Witness: []byte("w")}); err != nil {
			t.Fatal(err)
		}
		crashed := t.TempDir()
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range ents {
			b, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(crashed, e.Name()), b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		r := mustOpen(t, WALConfig{Dir: crashed})
		defer r.Close()
		if len(r.State().Pending) != 1 {
			t.Fatal("acknowledged record lost")
		}
	})
}

// TestWALConcurrentAppendCompactReplay is the race-detector test from the
// issue: appends, streamed chunk writes, compactions and State snapshots
// racing on one WAL, then a replay verifying nothing acknowledged was
// lost or duplicated.
func TestWALConcurrentAppendCompactReplay(t *testing.T) {
	dir := t.TempDir()
	w := mustOpen(t, WALConfig{Dir: dir, SegmentBytes: 16 << 10})
	d := digestOf(12)
	if err := w.PutCircuit(d, []byte("blob")); err != nil {
		t.Fatal(err)
	}
	const workers, perWorker = 8, 40
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				id := fmt.Sprintf("job-%d-%03d", g, i)
				switch i % 3 {
				case 0: // inline submit → complete
					if err := w.Submit(JobRecord{ID: id, Circuit: d, Witness: []byte("inline")}); err != nil {
						t.Error(err)
						return
					}
					if err := w.Complete(Result{ID: id, Proof: []byte(id)}); err != nil {
						t.Error(err)
						return
					}
				case 1: // streamed submit, left pending
					cw, err := w.WitnessWriter(id)
					if err != nil {
						t.Error(err)
						return
					}
					cw.Write([]byte("part1-"))
					cw.Write([]byte("part2"))
					cw.Close()
					if err := w.Submit(JobRecord{ID: id, Circuit: d}); err != nil {
						t.Error(err)
						return
					}
				case 2: // submit → terminal failure
					if err := w.Submit(JobRecord{ID: id, Circuit: d, Witness: []byte("bad")}); err != nil {
						t.Error(err)
						return
					}
					if err := w.Finish(nil, []Failure{{ID: id, Msg: "rejected"}}); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(g)
	}
	stop := make(chan struct{})
	var aux sync.WaitGroup
	aux.Add(2)
	go func() { // compactor
		defer aux.Done()
		for {
			select {
			case <-stop:
				return
			default:
				if err := w.Compact(); err != nil && err != ErrClosed {
					t.Error(err)
				}
				time.Sleep(time.Millisecond)
			}
		}
	}()
	go func() { // snapshot reader
		defer aux.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = w.State()
			}
		}
	}()
	wg.Wait()
	close(stop)
	aux.Wait()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	r := mustOpen(t, WALConfig{Dir: dir, Retention: 1 << 20})
	defer r.Close()
	st := r.State()
	for g := 0; g < workers; g++ {
		for i := 0; i < perWorker; i++ {
			id := fmt.Sprintf("job-%d-%03d", g, i)
			switch i % 3 {
			case 0:
				if !bytes.Equal(st.Done[id].Proof, []byte(id)) {
					t.Fatalf("%s: completed job lost or mangled", id)
				}
			case 1:
				found := false
				for _, p := range st.Pending {
					if p.ID == id {
						found = true
						if !bytes.Equal(p.Witness, []byte("part1-part2")) {
							t.Fatalf("%s: streamed witness mangled: %q", id, p.Witness)
						}
					}
				}
				if !found {
					t.Fatalf("%s: pending job lost", id)
				}
			case 2:
				if st.Failed[id].Msg != "rejected" {
					t.Fatalf("%s: failure record lost", id)
				}
			}
		}
	}
}

// legacySubmit hand-frames a submit record's payload as daemons with a
// three-lane priority queue wrote it: tag, id and tenant (16-bit
// lengths), circuit digest, the priority byte (0 high, 1 normal, 2 low),
// 0 for an inline witness, the witness (32-bit length).
func legacySubmit(id, tenant string, circuit [32]byte, priority byte, witness []byte) []byte {
	b := []byte{recSubmit, byte(len(id) >> 8), byte(len(id))}
	b = append(b, id...)
	b = append(b, byte(len(tenant)>>8), byte(len(tenant)))
	b = append(b, tenant...)
	b = append(b, circuit[:]...)
	b = append(b, priority, 0)
	n := len(witness)
	b = append(b, byte(n>>24), byte(n>>16), byte(n>>8), byte(n))
	return append(b, witness...)
}

// TestWALReplaysPriorityByte keeps segments written by daemons with
// priority lanes replayable: the byte that held the lane is skipped
// whatever its value, and a new record carries 1 ("normal") there, so an
// older daemon replays a new log as well.
func TestWALReplaysPriorityByte(t *testing.T) {
	dir := t.TempDir()
	d := digestOf(4)
	seg := make([]byte, walHeaderLen)
	binary.BigEndian.PutUint32(seg, walMagic)
	seg[4] = walVersion
	ids := []string{"job-high", "job-normal", "job-low"}
	for prio, id := range ids {
		seg = append(seg, frame(legacySubmit(id, "acme", d, byte(prio), []byte(id)))...)
	}
	if err := os.WriteFile(filepath.Join(dir, "seg-000000000001.wal"), seg, 0o644); err != nil {
		t.Fatal(err)
	}
	w := mustOpen(t, WALConfig{Dir: dir})
	defer w.Close()
	st := w.State()
	if len(st.Pending) != len(ids) {
		t.Fatalf("replayed %d pending jobs, want %d", len(st.Pending), len(ids))
	}
	for i, p := range st.Pending {
		if p.ID != ids[i] || p.Tenant != "acme" || p.Circuit != d || !bytes.Equal(p.Witness, []byte(ids[i])) {
			t.Fatalf("pending[%d] = %+v, want %s in submit order", i, p, ids[i])
		}
	}

	rec := JobRecord{ID: "job-new", Tenant: "acme", Circuit: d, Witness: []byte("w")}
	if got, want := encodeSubmit(rec), legacySubmit(rec.ID, rec.Tenant, d, 1, rec.Witness); !bytes.Equal(got, want) {
		t.Fatalf("new submit record\n%x\nwant the legacy normal-priority layout\n%x", got, want)
	}
}

// legacyClaim hand-frames a claim record's payload as older daemons
// wrote one when a shard picked a job up: tag 4, then the id (16-bit
// length).
func legacyClaim(id string) []byte {
	b := []byte{4, byte(len(id) >> 8), byte(len(id))}
	return append(b, id...)
}

// recordTypes lists the tag of every record in the segment files under
// dir, in log order.
func recordTypes(t *testing.T, dir string) []byte {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "seg-*.wal"))
	if err != nil {
		t.Fatal(err)
	}
	var tags []byte
	for _, seg := range segs {
		b, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		for off := walHeaderLen; off+walFrameLen < len(b); {
			n := int(binary.BigEndian.Uint32(b[off:]))
			tags = append(tags, b[off+walFrameLen])
			off += walFrameLen + n
		}
	}
	return tags
}

// TestWALReplaysClaimRecords keeps logs from daemons that wrote claim
// records replayable: a claim changes nothing, so a job that was
// submitted, claimed and completed is done, and one that was submitted
// and claimed is pending. The store writes no claim record itself.
func TestWALReplaysClaimRecords(t *testing.T) {
	dir := t.TempDir()
	d := digestOf(6)
	seg := make([]byte, walHeaderLen)
	binary.BigEndian.PutUint32(seg, walMagic)
	seg[4] = walVersion
	for _, p := range [][]byte{
		legacySubmit("job-a", "acme", d, 1, []byte("wa")),
		legacyClaim("job-a"),
		encodeDone(Result{ID: "job-a", Circuit: d, Proof: []byte("pa"), ProverNS: 3}),
		legacySubmit("job-b", "acme", d, 1, []byte("wb")),
		legacyClaim("job-b"),
	} {
		seg = append(seg, frame(p)...)
	}
	if err := os.WriteFile(filepath.Join(dir, "seg-000000000001.wal"), seg, 0o644); err != nil {
		t.Fatal(err)
	}
	w := mustOpen(t, WALConfig{Dir: dir})
	st := w.State()
	if got := st.Done["job-a"]; len(st.Done) != 1 || !bytes.Equal(got.Proof, []byte("pa")) || got.ProverNS != 3 {
		t.Fatalf("done = %+v, want job-a's result", st.Done)
	}
	if len(st.Pending) != 1 || st.Pending[0].ID != "job-b" || !bytes.Equal(st.Pending[0].Witness, []byte("wb")) {
		t.Fatalf("pending = %+v, want job-b", st.Pending)
	}
	if n := len(recordTypes(t, dir)); n != 5 {
		t.Fatalf("hand-framed log holds %d records, want 5", n)
	}

	// A job's whole life in this store: circuit, streamed witness,
	// submit, result; another's submit and failure.
	if err := w.PutCircuit(digestOf(7), []byte("blob")); err != nil {
		t.Fatal(err)
	}
	cw, err := w.WitnessWriter("job-c")
	if err != nil {
		t.Fatal(err)
	}
	cw.Write([]byte("wc"))
	cw.Close()
	if err := w.Submit(JobRecord{ID: "job-c", Circuit: d}); err != nil {
		t.Fatal(err)
	}
	if err := w.Finish([]Result{{ID: "job-b", Proof: []byte("pb")}, {ID: "job-c", Proof: []byte("pc")}}, nil); err != nil {
		t.Fatal(err)
	}
	if err := w.Submit(JobRecord{ID: "job-d", Circuit: d, Witness: []byte("wd")}); err != nil {
		t.Fatal(err)
	}
	if err := w.Finish(nil, []Failure{{ID: "job-d", Msg: "rejected"}}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	tags := recordTypes(t, dir)
	if len(tags) != 5+7 {
		t.Fatalf("log holds %d records, want the 5 hand-framed and 7 new", len(tags))
	}
	for i, tag := range tags[5:] {
		if tag == recClaim {
			t.Fatalf("new record %d is a claim record", i)
		}
	}
	r := mustOpen(t, WALConfig{Dir: dir})
	defer r.Close()
	if st := r.State(); len(st.Pending) != 0 || len(st.Done) != 3 || len(st.Failed) != 1 {
		t.Fatalf("after reopen: %d pending / %d done / %d failed", len(st.Pending), len(st.Done), len(st.Failed))
	}
}
