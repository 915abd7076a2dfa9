// Example recovery drives — and smoke-tests — zkproverd's durable job
// store across a crash. It runs in two phases against a daemon started
// with -store-dir and a fixed -seed:
//
//	zkproverd -addr :9966 -store-dir /tmp/wal -seed 7 &
//	go run ./examples/recovery -addr http://localhost:9966 -phase load -ids /tmp/ids
//	kill -9 %1                      # crash mid-batch
//	zkproverd -addr :9966 -store-dir /tmp/wal -seed 7 &
//	go run ./examples/recovery -addr http://localhost:9966 -phase verify -ids /tmp/ids
//
// The load phase registers one circuit per job and submits every job
// asynchronously, then exits immediately so the daemon dies with the
// work acknowledged but unfinished. The verify phase waits for every
// recorded job id on the restarted daemon — the client's WaitJob rides
// out the restart — and byte-compares each recovered proof against a
// control proof of the same statement from a fresh in-process service
// seeded identically: zero acknowledged-job loss, byte-identical
// re-proofs. It exits non-zero on any failure.
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"zkspeed"
	"zkspeed/client"
)

func main() {
	addr := flag.String("addr", "http://127.0.0.1:9966", "daemon base URL")
	phase := flag.String("phase", "", "load | verify")
	idsPath := flag.String("ids", "/tmp/zkspeed-recovery-ids", "file carrying job ids between phases")
	jobs := flag.Int("jobs", 6, "async jobs submitted by the load phase")
	mu := flag.Int("mu", 10, "log2 gate count of each job's circuit")
	seed := flag.Int64("seed", 7, "workload seed; must match the daemon's -seed for byte-identity")
	flag.Parse()
	log.SetFlags(0)
	log.SetPrefix("recovery: ")

	cl := client.New(*addr)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()

	switch *phase {
	case "load":
		load(ctx, cl, *idsPath, *jobs, *mu, *seed)
	case "verify":
		verify(ctx, cl, *idsPath, *mu, *seed)
	default:
		log.Fatalf("unknown -phase %q (want load or verify)", *phase)
	}
}

// load registers jobs circuits (one per job, seeds seed..seed+jobs-1) and
// submits one async prove each, recording "id seed" lines for verify.
func load(ctx context.Context, cl *client.Client, idsPath string, jobs, mu int, seed int64) {
	var lines []string
	for i := 0; i < jobs; i++ {
		s := seed + int64(i)
		circuit, assignment, _, err := zkspeed.SyntheticWorkloadSeeded(mu, s)
		if err != nil {
			log.Fatalf("workload %d: %v", i, err)
		}
		digest, err := cl.RegisterCircuit(ctx, circuit)
		if err != nil {
			log.Fatalf("register %d: %v", i, err)
		}
		id, err := cl.SubmitProve(ctx, digest, assignment)
		if err != nil {
			log.Fatalf("submit %d: %v", i, err)
		}
		lines = append(lines, fmt.Sprintf("%s %d %s", id, s, digest))
		log.Printf("submitted %s (circuit seed %d)", id, s)
	}
	if err := os.WriteFile(idsPath, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		log.Fatal(err)
	}
	log.Printf("load phase done: %d jobs in flight, ids in %s", len(lines), idsPath)
}

// verify waits out every recorded job on the restarted daemon and
// byte-compares its proof against a control re-prove of the same
// statement by a fresh, identically seeded in-process Engine — the same
// construction the daemon's engine uses, so with matching seeds the
// recovered proof must match bit for bit.
func verify(ctx context.Context, cl *client.Client, idsPath string, mu int, seed int64) {
	blob, err := os.ReadFile(idsPath)
	if err != nil {
		log.Fatal(err)
	}
	control := zkspeed.New(zkspeed.WithEntropy(zkspeed.SeededEntropy(seed)))

	recovered := 0
	for _, line := range strings.Split(strings.TrimSpace(string(blob)), "\n") {
		var id, digest string
		var s int64
		if _, err := fmt.Sscanf(line, "%s %d %s", &id, &s, &digest); err != nil {
			log.Fatalf("bad ids line %q: %v", line, err)
		}
		res, err := cl.WaitJob(ctx, id)
		if err != nil {
			log.Fatalf("job %s lost across restart: %v", id, err)
		}
		got, err := res.Proof.MarshalBinary()
		if err != nil {
			log.Fatal(err)
		}

		circuit, assignment, pub, err := zkspeed.SyntheticWorkloadSeeded(mu, s)
		if err != nil {
			log.Fatal(err)
		}
		ctrl, err := control.Prove(ctx, circuit, assignment)
		if err != nil {
			log.Fatalf("control prove (seed %d): %v", s, err)
		}
		want, err := ctrl.Proof.MarshalBinary()
		if err != nil {
			log.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			log.Fatalf("job %s: recovered proof differs from the control re-prove (%d vs %d bytes)", id, len(got), len(want))
		}
		if err := cl.Verify(ctx, digest, pub, res.Proof); err != nil {
			log.Fatalf("job %s: recovered proof rejected by the daemon: %v", id, err)
		}
		recovered++
		log.Printf("job %s: proof byte-identical to control and verifies", id)
	}
	log.Printf("verify phase done: %d/%d jobs recovered with byte-identical proofs", recovered, recovered)
}
