// Example cluster demonstrates — and smoke-tests — zkspeed's distributed
// proving: it starts an in-process coordinator (the same code path as
// cmd/zkclusterd) plus two workers, proves a 16-statement batch through
// the HTTP API, kills one worker while the batch is in flight, then fires
// a burst of async singles at the surviving worker. It verifies every
// proof and asserts from /metrics that the death was re-queued and that
// every single was dispatched to the survivor, none proved locally,
// exiting non-zero on any failure — CI's cluster-smoke job runs exactly
// this.
package main

import (
	"context"
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
	seed := flag.Int64("seed", 7, "setup-entropy seed shared by the cluster")
	statements := flag.Int("statements", 16, "batch size for the worker-death phase")
	singles := flag.Int("singles", 8, "async singles fired at the surviving worker")
	flag.Parse()
	log.SetFlags(0)

	// Coordinator: two batch loops, coalescing off so every single is its
	// own dispatch, worker listener on loopback.
	svc, err := zkspeed.NewService(zkspeed.ServiceConfig{
		Shards:      2,
		BatchWindow: -1,
	},
		zkspeed.WithEntropy(zkspeed.SeededEntropy(*seed)),
		zkspeed.WithCluster(zkspeed.ClusterConfig{Listen: "127.0.0.1:0", Logf: log.Printf}),
	)
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
	base := "http://" + ln.Addr().String()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	cl := client.New(base, client.WithAutoRetry(5), client.WithPollInterval(10*time.Millisecond))

	clusterAddr := mustClusterAddr(ctx, cl)
	log.Printf("coordinator at %s, workers join %s", base, clusterAddr)

	victim := join(ctx, clusterAddr, "victim")
	survivor := join(ctx, clusterAddr, "survivor")
	defer survivor.Close()
	waitWorkers(ctx, cl, 2)

	if ready, err := cl.Ready(ctx); err != nil || !ready.Ready {
		log.Fatalf("coordinator not ready with 2 workers: %v %+v", err, ready)
	}

	// Phase 1: 16-statement batch, one worker killed mid-flight. The
	// batch must complete with zero client-visible failures.
	circuit, assigns := statementsOf(1000, *statements)
	digest, err := cl.RegisterCircuit(ctx, circuit)
	if err != nil {
		log.Fatal(err)
	}

	killed := make(chan struct{})
	go func() {
		defer close(killed)
		for ctx.Err() == nil {
			st, err := cl.ClusterStatus(ctx)
			if err == nil {
				for _, w := range st.Workers {
					if w.ID == victim.ID() && w.Inflight > 0 {
						log.Printf("killing worker %q with %d statement(s) in flight", w.Name, w.Inflight)
						victim.Close()
						return
					}
				}
			}
			time.Sleep(time.Millisecond)
		}
	}()

	batch, err := cl.ProveBatch(ctx, digest, assigns)
	if err != nil {
		log.Fatalf("batch: %v", err)
	}
	<-killed
	if batch.Failed != 0 || batch.BatchDigest == "" {
		log.Fatalf("batch after worker death: failed=%d digest=%q", batch.Failed, batch.BatchDigest)
	}
	for i, st := range batch.Statements {
		if st.Err != nil {
			log.Fatalf("statement %d: %v", i, st.Err)
		}
		if err := cl.Verify(ctx, digest, st.Result.PublicInputs, st.Result.Proof); err != nil {
			log.Fatalf("statement %d verify: %v", i, err)
		}
	}
	log.Printf("batch of %d statements survived the worker death (digest %.16s...)", len(assigns), batch.BatchDigest)

	// Phase 2: async singles with one worker left. Coalescing is off, so
	// each single must reach the survivor as its own dispatch, and none may
	// fall back to local proving. Fresh witnesses (disjoint from phase 1's)
	// so the proof cache stays cold and the jobs actually queue.
	before, err := cl.Metrics(ctx)
	if err != nil {
		log.Fatal(err)
	}
	_, moreAssigns := statementsOf(5000, *singles)
	jobIDs := make([]string, len(moreAssigns))
	for i, a := range moreAssigns {
		if jobIDs[i], err = cl.SubmitProve(ctx, digest, a); err != nil {
			log.Fatalf("submit single %d: %v", i, err)
		}
	}
	for i, id := range jobIDs {
		res, err := cl.WaitJob(ctx, id)
		if err != nil {
			log.Fatalf("single %d: %v", i, err)
		}
		if err := cl.Verify(ctx, digest, res.PublicInputs, res.Proof); err != nil {
			log.Fatalf("single %d verify: %v", i, err)
		}
	}

	metrics, err := cl.Metrics(ctx)
	if err != nil {
		log.Fatal(err)
	}
	grew := func(name string) float64 { return metricValue(metrics, name) - metricValue(before, name) }
	dispatches := grew("zkproverd_cluster_dispatches_total")
	fallbacks := grew("zkproverd_cluster_local_fallbacks_total")
	requeues := metricValue(metrics, "zkproverd_cluster_requeues_total")
	deaths := metricValue(metrics, "zkproverd_cluster_worker_deaths_total")
	log.Printf("metrics: requeues=%g worker_deaths=%g; singles phase: dispatches=+%g local_fallbacks=+%g",
		requeues, deaths, dispatches, fallbacks)
	if requeues < 1 {
		log.Fatal("expected at least one re-queue after the worker death")
	}
	if dispatches < float64(len(moreAssigns)) {
		log.Fatalf("expected at least %d dispatches to the surviving worker during the singles burst", len(moreAssigns))
	}
	if fallbacks != 0 {
		log.Fatal("a single was proved locally with a live worker registered")
	}
	log.Print("cluster smoke: OK")
}

// statementsOf builds n distinct witnesses (x = start..start+n-1) of one
// fixed circuit: a repeated multiply-add chain whose final value is the
// public input. Around 400 gates — big enough that proofs take long
// enough to queue, small enough for CI.
func statementsOf(start uint64, n int) (*zkspeed.Circuit, []*zkspeed.Assignment) {
	var circuit *zkspeed.Circuit
	assigns := make([]*zkspeed.Assignment, n)
	for i := 0; i < n; i++ {
		b := zkspeed.NewBuilder()
		x := b.Witness(zkspeed.NewScalar(start + uint64(i)))
		acc := x
		for k := 0; k < 200; k++ {
			acc = b.Add(b.Mul(acc, x), x)
		}
		out := b.PublicInput(b.Value(acc))
		b.AssertEqual(acc, out)
		c, a, _, err := b.Compile()
		if err != nil {
			log.Fatal(err)
		}
		if circuit == nil {
			circuit = c
		}
		assigns[i] = a
	}
	return circuit, assigns
}

func join(ctx context.Context, addr, name string) *zkspeed.ClusterWorker {
	w, err := zkspeed.JoinCluster(ctx, addr, zkspeed.ClusterWorkerConfig{Name: name, Logf: log.Printf})
	if err != nil {
		log.Fatalf("joining worker %q: %v", name, err)
	}
	return w
}

func mustClusterAddr(ctx context.Context, cl *client.Client) string {
	st, err := cl.ClusterStatus(ctx)
	if err != nil {
		log.Fatalf("cluster status: %v", err)
	}
	return st.Addr
}

func waitWorkers(ctx context.Context, cl *client.Client, n int) {
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if st, err := cl.ClusterStatus(ctx); err == nil && len(st.Workers) >= n {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	log.Fatalf("cluster never reached %d workers", n)
}

// metricValue extracts one metric's value from the Prometheus exposition.
func metricValue(metrics, name string) float64 {
	for _, line := range strings.Split(metrics, "\n") {
		if strings.HasPrefix(line, name+" ") {
			var v float64
			fmt.Sscanf(strings.TrimPrefix(line, name+" "), "%g", &v)
			return v
		}
	}
	return -1
}
