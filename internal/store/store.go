// Package store is zkproverd's pluggable job store: the record of every
// proving job's lifecycle (submit → complete/fail), the circuit
// blobs the jobs reference, and the completed results clients poll for.
//
// WAL implements the Store interface: it persists every transition to an
// append-only, checksummed, segmented write-ahead log with periodic
// compaction, and every call that records a transition returns only after
// an fsync covering it, so a daemon restart (graceful or SIGKILL) rebuilds
// its queues, circuit registry and completed-proof results by replaying
// the log: an acknowledged job is never lost, it is either re-proved or
// served from its recorded result. A service with no store keeps its jobs
// in process memory only.
//
// The store records facts, not policy: a submitted job with no terminal
// record is "pending", whether or not a shard had picked it up before a
// crash, and transient failures — shutdown, context cancellation — are
// deliberately never recorded, so replay re-queues the job instead of
// surfacing a failure the client could not act on. Only prover
// rejections are terminal.
package store

import (
	"errors"
	"fmt"
	"io"
)

// JobRecord is one submitted proving job as the store sees it.
type JobRecord struct {
	// ID is the service-assigned job id ("job-%06x"); stable across
	// restarts, which is what makes polling survive a crash.
	ID string
	// Tenant is the submitting tenant's id ("" when the service runs
	// unauthenticated).
	Tenant string
	// Circuit is the digest of the registered circuit the job proves.
	Circuit [32]byte
	// Witness is the ZKSW assignment blob. Nil on Submit means the
	// witness was pre-streamed through WitnessWriter under the same ID
	// and the store must assemble it from the recorded chunks.
	Witness []byte
}

// Result is a completed job's terminal record.
type Result struct {
	ID string
	// Circuit is the digest of the circuit the proof is for, so a
	// restored result is served with full attribution.
	Circuit [32]byte
	Proof   []byte // ZKSP wire bytes
	// PublicInputs are 32-byte big-endian field elements, circuit order.
	PublicInputs [][]byte
	ProverNS     int64
}

// Failure is a terminally failed job's record (prover rejection — never
// a transient shutdown or cancellation, which are not recorded at all).
type Failure struct {
	ID  string
	Msg string
}

// State is a recovered (or current) snapshot of everything the store
// holds: what a restarting service needs to rebuild its registry, queues
// and pollable results.
type State struct {
	// Circuits maps digest → ZKSC blob for every registered circuit.
	Circuits map[[32]byte][]byte
	// Pending holds every job with no terminal record, in submit order —
	// the re-queue list. A job that was being proved but never finished
	// is pending: re-proving is always safe (the prover is deterministic).
	Pending []JobRecord
	// Done maps job id → result for completed jobs within retention.
	Done map[string]Result
	// Failed maps job id → terminal failure within retention.
	Failed map[string]Failure
}

// Store records job lifecycle transitions and circuit registrations.
// All methods are safe for concurrent use. PutCircuit, Submit and Finish
// return only after one fsync covering their records and any streamed
// witness chunks written before them: streamed bytes are durable once the
// Submit that adopts them returns, not before.
type Store interface {
	// PutCircuit persists a registered circuit blob. Idempotent.
	PutCircuit(digest [32]byte, blob []byte) error
	// Submit records a job acknowledged to a client. With j.Witness nil
	// the witness is assembled from chunks previously streamed through
	// WitnessWriter under j.ID.
	Submit(j JobRecord) error
	// WitnessWriter streams a witness blob into the store ahead of
	// Submit — the chunked-upload path that never holds the whole blob
	// in memory. The writer coalesces Writes of any size into records of
	// at most 64 KiB and writes no fsync of its own; Close appends the
	// tail, and a Submit for the id then adopts the chunks and makes
	// them durable with its own record. After a failed Write or Close
	// the caller drops the upload with DiscardWitness.
	WitnessWriter(id string) (io.WriteCloser, error)
	// DiscardWitness drops streamed chunks for an upload that was
	// aborted before Submit (client disconnect, validation failure).
	DiscardWitness(id string) error
	// Finish records the terminal records of a batch, successful results
	// and terminal failures (prover rejections), with one fsync after its
	// last record. Transient failures must not be recorded — absence is
	// what re-queues the job on replay. The store may retain each
	// result's Proof and PublicInputs rather than copy them, so the caller
	// must not modify them afterwards.
	Finish(done []Result, failed []Failure) error
	// State snapshots the store's current state (on a fresh open, the
	// recovered state). The snapshot is independent of later appends.
	State() State
	Close() error
}

// ErrClosed is returned by appends on a closed store.
var ErrClosed = errors.New("store: closed")

// memState is the WAL's in-memory replay mirror, which makes State and
// compaction O(live) instead of O(log).
type memState struct {
	circuits  map[[32]byte][]byte
	pending   map[string]*JobRecord
	order     []string // submit order of pending ids (may contain stale ids)
	done      map[string]Result
	failed    map[string]Failure
	doneOrder []string // terminal order, for retention eviction
	chunks    map[string][]byte
	retention int
}

func newMemState(retention int) *memState {
	if retention <= 0 {
		retention = 1024
	}
	return &memState{
		circuits:  make(map[[32]byte][]byte),
		pending:   make(map[string]*JobRecord),
		done:      make(map[string]Result),
		failed:    make(map[string]Failure),
		chunks:    make(map[string][]byte),
		retention: retention,
	}
}

func (st *memState) putCircuit(digest [32]byte, blob []byte) {
	if _, ok := st.circuits[digest]; !ok {
		st.circuits[digest] = blob
	}
}

func (st *memState) submit(j JobRecord) error {
	if j.Witness == nil {
		blob, ok := st.chunks[j.ID]
		if !ok {
			return fmt.Errorf("store: submit %s: no streamed witness", j.ID)
		}
		delete(st.chunks, j.ID)
		j.Witness = blob
	}
	if _, ok := st.pending[j.ID]; ok {
		return nil // idempotent replay (snapshot over older segments)
	}
	if _, ok := st.done[j.ID]; ok {
		return nil
	}
	if _, ok := st.failed[j.ID]; ok {
		return nil
	}
	st.pending[j.ID] = &j
	st.order = append(st.order, j.ID)
	return nil
}

func (st *memState) appendChunk(id string, p []byte) {
	st.chunks[id] = append(st.chunks[id], p...)
}

func (st *memState) complete(r Result) {
	delete(st.pending, r.ID)
	if _, terminal := st.done[r.ID]; !terminal {
		st.doneOrder = append(st.doneOrder, r.ID)
	}
	st.done[r.ID] = r
	st.evict()
}

func (st *memState) fail(f Failure) {
	delete(st.pending, f.ID)
	if _, terminal := st.failed[f.ID]; !terminal {
		st.doneOrder = append(st.doneOrder, f.ID)
	}
	st.failed[f.ID] = f
	st.evict()
}

// evict trims terminal records beyond retention, oldest first.
func (st *memState) evict() {
	for len(st.done)+len(st.failed) > st.retention && len(st.doneOrder) > 0 {
		id := st.doneOrder[0]
		st.doneOrder = st.doneOrder[1:]
		delete(st.done, id)
		delete(st.failed, id)
	}
}

// snapshot deep-copies the maps (values are shared — records are never
// mutated after append) into a State.
func (st *memState) snapshot() State {
	out := State{
		Circuits: make(map[[32]byte][]byte, len(st.circuits)),
		Done:     make(map[string]Result, len(st.done)),
		Failed:   make(map[string]Failure, len(st.failed)),
	}
	for d, b := range st.circuits {
		out.Circuits[d] = b
	}
	for _, id := range st.order {
		if j := st.pending[id]; j != nil {
			out.Pending = append(out.Pending, *j)
		}
	}
	for id, r := range st.done {
		out.Done[id] = r
	}
	for id, f := range st.failed {
		out.Failed[id] = f
	}
	return out
}
