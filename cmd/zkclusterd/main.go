// Command zkclusterd runs the zkspeed cluster coordinator: the zkproverd
// HTTP/JSON proving service plus a TCP listener that zkproverd -worker
// daemons join. Jobs queue and coalesce as in zkproverd, but each batch
// loop dispatches its batches to the least-loaded worker holding the
// circuit (streaming the ZKSC blob the first time), re-queues work from
// workers that die mid-job, and proves locally when zero workers are
// registered; -shards loops keep that many batches in flight.
//
// Every worker receives the coordinator's 64-byte setup seed in the join
// handshake, so all engines in the cluster derive the same SRS and the
// proofs are byte-identical wherever they were produced.
//
// Usage:
//
//	zkclusterd                                  # HTTP :8080, workers join :9444
//	zkclusterd -addr :8080 -cluster-addr :9444 -shards 4
//	zkclusterd -preload-mu 10,12 -seed 7
//
// Then on each proving node:
//
//	zkproverd -worker -join coordinator:9444 -name node-3
//
// GET /v1/cluster reports the registered workers and dispatch counters;
// /readyz answers 503 until at least one worker is registered (the
// coordinator still proves locally in that state, just degraded).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"zkspeed"
)

func main() {
	addr := flag.String("addr", ":8080", "HTTP listen address")
	clusterAddr := flag.String("cluster-addr", ":9444", "TCP address workers join")
	shards := flag.Int("shards", 1, "number of batch loops dispatching to workers")
	queueCap := flag.Int("queue-cap", 64, "queued jobs before 429")
	batchWindow := flag.Duration("batch-window", 5*time.Millisecond, "batch accumulation window (0 disables coalescing)")
	maxBatch := flag.Int("max-batch", 16, "max jobs per dispatched batch")
	cacheSize := flag.Int("cache", 256, "proof-cache entries (negative disables)")
	retention := flag.Int("retention", 1024, "finished jobs kept pollable")
	maxCircuits := flag.Int("max-circuits", 4096, "registered circuits before registrations are rejected")
	seed := flag.Int64("seed", 0, "deterministic setup entropy seed (0 = crypto/rand)")
	preload := flag.String("preload-mu", "", "comma-separated problem sizes whose SRS to pre-derive at startup, e.g. 10,12")
	heartbeat := flag.Duration("heartbeat", time.Second, "expected worker heartbeat cadence")
	misses := flag.Int("heartbeat-misses", 3, "silent heartbeat intervals before a worker is dropped")
	maxRetries := flag.Int("max-retries", 2, "re-queue budget for batches whose worker died mid-job")
	flag.Parse()

	log.SetFlags(log.LstdFlags | log.Lmsgprefix)
	log.SetPrefix("zkclusterd: ")

	opts := []zkspeed.Option{
		zkspeed.WithCluster(zkspeed.ClusterConfig{
			Listen:            *clusterAddr,
			HeartbeatInterval: *heartbeat,
			HeartbeatMisses:   *misses,
			MaxRetries:        *maxRetries,
			Logf:              log.Printf,
		}),
	}
	if *seed != 0 {
		opts = append(opts, zkspeed.WithEntropy(zkspeed.SeededEntropy(*seed)))
	}

	window := *batchWindow
	if window == 0 {
		window = -1
	}
	svc, err := zkspeed.NewService(zkspeed.ServiceConfig{
		Shards:        *shards,
		QueueCapacity: *queueCap,
		BatchWindow:   window,
		MaxBatch:      *maxBatch,
		CacheSize:     *cacheSize,
		JobRetention:  *retention,
		MaxCircuits:   *maxCircuits,
	}, opts...)
	if err != nil {
		log.Fatal(err)
	}
	defer svc.Close()

	// Alive immediately, ready only after the preload — and, because this
	// is a coordinator, only while at least one worker is registered
	// (ReadyState folds that in).
	if *preload != "" {
		svc.SetReady(false, "preloading circuits")
	}

	server := &http.Server{
		Addr:              *addr,
		Handler:           svc.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	errCh := make(chan error, 1)
	go func() {
		log.Printf("serving HTTP on %s, cluster on %s (%d batch loop(s), queue %d)",
			*addr, svc.Cluster().ClusterStatus().Addr, *shards, *queueCap)
		errCh <- server.ListenAndServe()
	}()

	if *preload != "" {
		if err := preloadCircuits(svc, *preload, *seed); err != nil {
			log.Fatal(err)
		}
		svc.SetReady(true, "")
	}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-stop:
		// Readiness drops first so load balancers stop routing here, then
		// the HTTP drain; svc.Close (deferred) disconnects the workers.
		log.Printf("received %s, draining", sig)
		svc.SetReady(false, "draining")
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := server.Shutdown(ctx); err != nil {
			log.Printf("shutdown: %v", err)
		}
	case err := <-errCh:
		if !errors.Is(err, http.ErrServerClosed) {
			log.Fatal(err)
		}
	}
}

// preloadCircuits registers synthetic workloads for the listed sizes so
// the SRS ceremonies and key setups run before the first request arrives.
func preloadCircuits(svc *zkspeed.ProverService, list string, seed int64) error {
	if seed == 0 {
		seed = 1
	}
	for _, f := range strings.Split(list, ",") {
		mu, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			return fmt.Errorf("bad -preload-mu entry %q: %v", f, err)
		}
		if mu < 2 || mu > 20 {
			return fmt.Errorf("-preload-mu %d out of the supported functional range [2,20]", mu)
		}
		circuit, _, _, err := zkspeed.SyntheticWorkloadSeeded(mu, seed)
		if err != nil {
			return err
		}
		t0 := time.Now()
		info, err := svc.Preload(context.Background(), circuit)
		if err != nil {
			return fmt.Errorf("preloading mu=%d: %w", mu, err)
		}
		log.Printf("preloaded synthetic mu=%d circuit %s in %v",
			mu, info.Digest[:12], time.Since(t0).Round(time.Millisecond))
	}
	return nil
}
