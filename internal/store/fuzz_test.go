package store

import (
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

// frame wraps a payload in the WAL's length+CRC framing.
func frame(payload []byte) []byte {
	b := make([]byte, walFrameLen+len(payload))
	binary.BigEndian.PutUint32(b, uint32(len(payload)))
	binary.BigEndian.PutUint32(b[4:], crc32.Checksum(payload, walCRC))
	copy(b[walFrameLen:], payload)
	return b
}

// FuzzWALReplay feeds arbitrary bytes to the segment replay path. Replay
// must never panic: framed-and-checksummed garbage decodes or errors,
// unframed garbage is a torn tail. Either way the open must leave a
// usable store behind.
func FuzzWALReplay(f *testing.F) {
	d := digestOf(1)
	f.Add([]byte{})
	f.Add(frame(encodeCircuit(d, []byte("blob"))))
	f.Add(frame(encodeSubmit(JobRecord{ID: "job-1", Tenant: "t", Circuit: d, Witness: []byte("w")})))
	f.Add(frame(legacySubmit("job-3", "t", d, 2, []byte("w"))))
	f.Add(frame(encodeSubmit(JobRecord{ID: "job-2", Circuit: d})))
	f.Add(frame(encodeChunk("job-2", []byte("chunk"))))
	f.Add(frame(legacyClaim("job-1")))
	f.Add(frame(encodeDone(Result{ID: "job-1", Proof: []byte("p"), PublicInputs: [][]byte{make([]byte, 32)}, ProverNS: 9})))
	f.Add(frame(encodeFail("job-1", "msg")))
	// Adversarial shapes: truncated frame, CRC mismatch, huge length.
	f.Add([]byte{0, 0, 0, 9, 1, 2, 3})
	f.Add([]byte{0, 0, 0, 1, 0xde, 0xad, 0xbe, 0xef, recSubmit})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0})

	f.Fuzz(func(t *testing.T, body []byte) {
		dir := t.TempDir()
		seg := filepath.Join(dir, "seg-000000000001.wal")
		hdr := make([]byte, walHeaderLen)
		binary.BigEndian.PutUint32(hdr, walMagic)
		hdr[4] = walVersion
		if err := os.WriteFile(seg, append(hdr, body...), 0o644); err != nil {
			t.Fatal(err)
		}
		w, err := OpenWAL(WALConfig{Dir: dir})
		if err != nil {
			return // rejected garbage is fine; panicking is not
		}
		// Whatever replayed, the store must still work.
		if err := w.Submit(JobRecord{ID: "post-fuzz", Circuit: d, Witness: []byte("w")}); err != nil {
			t.Fatalf("store unusable after replay: %v", err)
		}
		st := w.State()
		found := false
		for _, p := range st.Pending {
			if p.ID == "post-fuzz" {
				found = true
			}
		}
		if !found {
			// "post-fuzz" may legitimately be terminal if the fuzzer
			// forged a done/fail record for that id.
			_, done := st.Done["post-fuzz"]
			_, failed := st.Failed["post-fuzz"]
			if !done && !failed {
				t.Fatal("submitted job vanished")
			}
		}
		w.Close()

		// Replay of what we just wrote must also succeed: by
		// construction the log now ends in valid records.
		r, err := OpenWAL(WALConfig{Dir: dir})
		if err != nil {
			t.Fatalf("reopen after append: %v", err)
		}
		r.Close()
	})
}
