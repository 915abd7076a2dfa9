package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"

	"zkspeed"
)

// workload is one set of inputs the benchmark runs. The four differ in
// problem size, commitment backend and how the cores are filled, not in
// count: that is where the kernel split moves (MSM first, SumCheck/MLE
// second, the ratio shifting with μ).
type workload struct {
	Name string
	Why  string
	// Mu is the log2 gate count; SmokeMu replaces it under -smoke.
	Mu, SmokeMu int
	// Scheme is the commitment backend name; empty is the default (PST).
	Scheme string
	// Circuits is how many distinct synthetic circuits the workload proves.
	Circuits int
	// BatchJobs > 0 proves through Engine.ProveBatch, that many jobs a
	// round; 0 proves one statement at a time.
	BatchJobs int
	// Serve drives an in-process proving service over loopback HTTP.
	Serve bool
}

var workloads = []workload{
	{
		Name: "prove-mu16", Mu: 16, SmokeMu: 6, Circuits: 1,
		Why: "one 2^16-gate proof at a time under PST: dense MSM, the opening chain and the cold ceremony dominate, and one proof uses every core",
	},
	{
		Name: "many-mu12", Mu: 12, SmokeMu: 6, Circuits: 4, BatchJobs: 16,
		Why: "rounds of a 16-job ProveBatch over four 2^12-gate circuits: cores are filled by concurrent proofs, so per-proof fixed costs and fan-out weigh most",
	},
	{
		Name: "zeromorph-mu14", Mu: 14, SmokeMu: 6, Circuits: 1, Scheme: "zeromorph",
		Why: "the same prover at 2^14 gates under the Zeromorph backend: PST-only work must not move it, field, curve, MSM and SumCheck work must",
	},
	{
		Name: "serve-mu8-mixed", Mu: 8, SmokeMu: 4, Serve: true,
		Why: "a proving service behind loopback HTTP, 65% JSON, 10% streamed, 25% repeated dense 2^8-gate witnesses: service, store and wire codecs are a visible share",
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// statement is one (circuit, witness) pair to prove.
type statement struct {
	circuit    *zkspeed.Circuit
	assignment *zkspeed.Assignment
	public     []zkspeed.Scalar
}

// syntheticStatements builds the workload's circuits with the paper's
// §6.2 witness statistics, each from its own seed derived from the run's.
func syntheticStatements(mu, count int, seed int64) ([]statement, error) {
	out := make([]statement, count)
	for i := range out {
		c, a, pub, err := zkspeed.SyntheticWorkloadSeeded(mu, seed*1000+int64(i))
		if err != nil {
			return nil, err
		}
		out[i] = statement{c, a, pub}
	}
	return out, nil
}

// chainStatement builds the served circuit: a multiply-add chain
// acc ← acc·x + x sized so the gate count pads to exactly 2^mu. The
// structure does not depend on x, so every witness is a statement of one
// circuit, and every wire value is a full-width field element — a dense
// witness, unlike the synthetic generator's 45/45/10 split.
func chainStatement(mu int, x uint64) (statement, error) {
	b := zkspeed.NewBuilder()
	v := b.Witness(zkspeed.NewScalar(x))
	acc := v
	for k := 0; k < 1<<(mu-2); k++ {
		acc = b.Add(b.Mul(acc, v), v)
	}
	b.AssertEqual(acc, b.PublicInput(b.Value(acc)))
	c, a, pub, err := b.Compile()
	if err != nil {
		return statement{}, err
	}
	if c.Mu != mu {
		return statement{}, fmt.Errorf("chain circuit compiled to mu=%d, want %d", c.Mu, mu)
	}
	return statement{c, a, pub}, nil
}

// Request kinds of the served mix.
const (
	reqJSON   = iota // fresh witness through POST /v1/prove
	reqStream        // fresh witness through POST /v1/prove_stream
	reqRepeat        // the witness sent repeatDistance requests earlier
)

const (
	// mixBlock is the period of the mix: 13 JSON, 2 streamed and 5
	// repeated requests in every 20, so the shares are exact over whole
	// blocks.
	mixBlock = 20
	// repeatDistance keeps every repeat inside the service's default
	// 256-entry proof cache.
	repeatDistance = 64
	// maxRequests bounds the pre-drawn schedule; a closed loop of four
	// clients stays far below it in a minute.
	maxRequests = 20000
)

// request is one entry of the served schedule. Witness is the x the
// chain is built from.
type request struct {
	Kind    int
	Witness uint64
}

// requestSchedule draws the served mix from the seed. The first
// repeatDistance entries are fresh JSON requests that are sent before the
// timed phase, so that every later repeat has a witness to repeat.
func requestSchedule(seed int64) []request {
	rng := rand.New(rand.NewSource(seed))
	base := uint64(seed)<<20 + 2 // x = 0 and 1 would collapse the chain
	sched := make([]request, 0, repeatDistance+maxRequests)
	for len(sched) < cap(sched) {
		if len(sched) < repeatDistance {
			sched = append(sched, request{reqJSON, base + uint64(len(sched))})
			continue
		}
		kinds := make([]int, mixBlock)
		for i := range kinds {
			switch {
			case i < 5:
				kinds[i] = reqRepeat
			case i < 7:
				kinds[i] = reqStream
			}
		}
		rng.Shuffle(mixBlock, func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
		for _, k := range kinds {
			r := request{k, base + uint64(len(sched))}
			if k == reqRepeat {
				r.Witness = sched[len(sched)-repeatDistance].Witness
			}
			sched = append(sched, r)
		}
	}
	return sched
}

func digestHex(d [32]byte) string { return hex.EncodeToString(d[:]) }

// proofDigest is the SHA-256 of the proof's wire bytes and their length.
func proofDigest(p *zkspeed.Proof) (string, int, error) {
	blob, err := p.MarshalBinary()
	if err != nil {
		return "", 0, err
	}
	return digestHex(sha256.Sum256(blob)), len(blob), nil
}

// tampered returns a copy of the proof with its first batch evaluation
// off by one — a proof the verifier must reject.
func tampered(p *zkspeed.Proof) (*zkspeed.Proof, error) {
	blob, err := p.MarshalBinary()
	if err != nil {
		return nil, err
	}
	bad := new(zkspeed.Proof)
	if err := bad.UnmarshalBinary(blob); err != nil {
		return nil, err
	}
	one := zkspeed.NewScalar(1)
	bad.Evals[0].Add(&bad.Evals[0], &one)
	return bad, nil
}
