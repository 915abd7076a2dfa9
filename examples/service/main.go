// Example service demonstrates — and smoke-tests — the zkproverd proving
// service through the zkspeed/client package: register a circuit, prove
// synchronously (twice, the second served by the proof cache), submit an
// async job and poll it, prove an 8-statement batch (spread over every
// batch loop of the service), verify every proof, and scrape /metrics.
//
// Point it at a running daemon:
//
//	go run ./cmd/zkproverd -addr :8080 &
//	go run ./examples/service -addr http://localhost:8080 -mu 8
//
// or let it spin up an in-process service on a loopback port (no -addr),
// which makes it a self-contained end-to-end check — CI runs it against a
// real daemon. It exits non-zero on any failure.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"strings"
	"time"

	"zkspeed"
	"zkspeed/client"
)

func main() {
	addr := flag.String("addr", "", "service base URL (empty = start an in-process service)")
	mu := flag.Int("mu", 8, "log2 gate count of the synthetic workload")
	seed := flag.Int64("seed", 7, "workload and setup-entropy seed")
	flag.Parse()
	log.SetFlags(0)

	base := *addr
	if base == "" {
		svc, err := zkspeed.NewService(zkspeed.ServiceConfig{
			Shards:      2,
			BatchWindow: 5 * time.Millisecond,
		}, zkspeed.WithEntropy(zkspeed.SeededEntropy(*seed)))
		if err != nil {
			log.Fatal(err)
		}
		defer svc.Close()
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		server := &http.Server{Handler: svc.Handler()}
		go server.Serve(ln)
		defer server.Close()
		base = "http://" + ln.Addr().String()
		log.Printf("started in-process service at %s", base)
	}

	cl := client.New(base)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()

	health, err := cl.Health(ctx)
	if err != nil {
		log.Fatalf("healthz: %v", err)
	}
	log.Printf("service healthy: %d batch loop(s), queue %d/%d", health.Shards, health.QueueDepth, health.QueueCapacity)

	circuit, assignment, pub, err := zkspeed.SyntheticWorkloadSeeded(*mu, *seed)
	if err != nil {
		log.Fatalf("workload: %v", err)
	}
	digest, err := cl.RegisterCircuit(ctx, circuit)
	if err != nil {
		log.Fatalf("register: %v", err)
	}
	info, err := cl.Circuit(ctx, digest)
	if err != nil {
		log.Fatalf("circuit lookup: %v", err)
	}
	log.Printf("registered 2^%d-gate circuit %s…", info.Mu, digest[:12])

	// Synchronous prove; retry with the server's own pacing if overloaded.
	var res *client.ProveResult
	for {
		res, err = cl.Prove(ctx, digest, assignment)
		var over *client.OverloadedError
		if errors.As(err, &over) {
			log.Printf("service overloaded, honoring Retry-After %s", over.RetryAfter)
			time.Sleep(over.RetryAfter)
			continue
		}
		if err != nil {
			log.Fatalf("prove: %v", err)
		}
		break
	}
	log.Printf("proved in %v (batch of %d)", res.ProverTime.Round(time.Microsecond), res.BatchSize)
	if len(res.PublicInputs) != len(pub) {
		log.Fatalf("got %d public inputs, want %d", len(res.PublicInputs), len(pub))
	}
	if err := cl.Verify(ctx, digest, res.PublicInputs, res.Proof); err != nil {
		log.Fatalf("verify: %v", err)
	}
	log.Printf("proof verified")

	// The identical request must come back from the proof cache.
	again, err := cl.Prove(ctx, digest, assignment)
	if err != nil {
		log.Fatalf("second prove: %v", err)
	}
	if !again.Cached {
		log.Fatal("identical request was not served from the proof cache")
	}
	log.Printf("identical request served from proof cache")

	// Async submit + poll, on a second relation (different seed ⇒
	// different circuit).
	circuit2, assignment2, _, err := zkspeed.SyntheticWorkloadSeeded(*mu, *seed+1)
	if err != nil {
		log.Fatalf("workload 2: %v", err)
	}
	digest2, err := cl.RegisterCircuit(ctx, circuit2)
	if err != nil {
		log.Fatalf("register 2: %v", err)
	}
	jobID, err := cl.SubmitProve(ctx, digest2, assignment2, "high")
	if err != nil {
		log.Fatalf("async submit: %v", err)
	}
	asyncRes, err := cl.WaitJob(ctx, jobID)
	if err != nil {
		log.Fatalf("async job %s: %v", jobID, err)
	}
	if err := cl.Verify(ctx, digest2, asyncRes.PublicInputs, asyncRes.Proof); err != nil {
		log.Fatalf("async verify: %v", err)
	}
	log.Printf("async job %s proved and verified", jobID)

	// Rollup-style batch: eight witnesses of one relation. A multi-loop
	// service spreads the batch over its loops; every proof must verify
	// against the circuit's one verifying key.
	const batchSize = 8
	var batchCircuit *zkspeed.Circuit
	batch := make([]*zkspeed.Assignment, batchSize)
	for i := range batch {
		if batchCircuit, batch[i], err = quadratic(uint64(i + 1)); err != nil {
			log.Fatalf("batch statement %d: %v", i, err)
		}
	}
	batchDigest, err := cl.RegisterCircuit(ctx, batchCircuit)
	if err != nil {
		log.Fatalf("register batch circuit: %v", err)
	}
	br, err := cl.ProveBatch(ctx, batchDigest, batch)
	if err != nil {
		log.Fatalf("prove batch: %v", err)
	}
	if br.Failed != 0 || len(br.Statements) != batchSize {
		log.Fatalf("batch: %d of %d statements failed", br.Failed, len(br.Statements))
	}
	for i, st := range br.Statements {
		if err := cl.Verify(ctx, batchDigest, st.Result.PublicInputs, st.Result.Proof); err != nil {
			log.Fatalf("batch statement %d verify: %v", i, err)
		}
	}
	log.Printf("%d-statement batch proved and verified", batchSize)

	metrics, err := cl.Metrics(ctx)
	if err != nil {
		log.Fatalf("metrics: %v", err)
	}
	for _, want := range []string{"zkproverd_jobs_total", "zkproverd_prove_seconds_count", "zkproverd_step_seconds_total"} {
		if !strings.Contains(metrics, want) {
			log.Fatalf("metrics exposition missing %s", want)
		}
	}
	fmt.Println("OK: register, sync prove, cache hit, async prove, batch prove, verify, metrics")
}

// quadratic compiles x²+3x+5 == y (y public): one relation whose witness
// varies with x.
func quadratic(x uint64) (*zkspeed.Circuit, *zkspeed.Assignment, error) {
	b := zkspeed.NewBuilder()
	xv := b.Witness(zkspeed.NewScalar(x))
	y := b.AddConst(b.Add(b.Mul(xv, xv), b.MulConst(zkspeed.NewScalar(3), xv)), zkspeed.NewScalar(5))
	b.AssertEqual(y, b.PublicInput(b.Value(y)))
	circuit, assignment, _, err := b.Compile()
	return circuit, assignment, err
}
