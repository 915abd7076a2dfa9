// Command zkproverd runs the zkspeed proving service: one prover engine
// behind a bounded priority job queue with backpressure, drained by
// -shards batch loops whose batch-accumulation window coalesces
// same-circuit jobs into one ProveBatch call (amortizing SRS/key setup
// across tenants), an LRU proof cache, and an HTTP/JSON API with
// Prometheus-style /metrics. Every loop shares the engine's one SRS and
// key cache, so -preload-mu warms them all.
//
// Usage:
//
//	zkproverd                                   # serve on :8080, 1 batch loop
//	zkproverd -addr :9090 -shards 4 -batch-window 10ms
//	zkproverd -queue-cap 128 -max-batch 32 -cache 1024
//	zkproverd -preload-mu 10,12 -seed 7         # pre-derive SRS ceremonies
//	zkproverd -store-dir /var/lib/zkproverd/wal # durable job store: jobs survive restarts
//	zkproverd -tenants-file tenants.json        # API-key auth + per-tenant quotas
//	zkproverd -pcs zeromorph                    # serve the Zeromorph PCS backend
//
// See the README's "Running the proving service" section for the API
// walkthrough and wire formats.
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
	shards := flag.Int("shards", 1, "number of batch loops draining the job queue")
	queueCap := flag.Int("queue-cap", 64, "queued jobs before 429")
	batchWindow := flag.Duration("batch-window", 5*time.Millisecond, "batch accumulation window (0 disables coalescing)")
	maxBatch := flag.Int("max-batch", 16, "max jobs per ProveBatch call")
	cacheSize := flag.Int("cache", 256, "proof-cache entries (negative disables)")
	retention := flag.Int("retention", 1024, "finished jobs kept pollable")
	maxCircuits := flag.Int("max-circuits", 4096, "registered circuits before registrations are rejected")
	seed := flag.Int64("seed", 0, "deterministic setup entropy seed (0 = crypto/rand)")
	preload := flag.String("preload-mu", "", "comma-separated problem sizes whose SRS to pre-derive at startup, e.g. 10,12")
	workers := flag.Int("workers", 0, "ProveBatch worker pool size (0 = one per CPU)")
	verbose := flag.Bool("v", false, "log every completed proof")
	storeDir := flag.String("store-dir", "", "directory for the durable job store (WAL); empty = in-memory only")
	storeSync := flag.Duration("store-sync", 0, "WAL fsync batching interval (0 = sync every append, negative = leave to the OS; with -store-dir)")
	tenantsFile := flag.String("tenants-file", "", "JSON tenants file enabling API-key auth and per-tenant quotas")
	pcsScheme := flag.String("pcs", "", "polynomial commitment scheme: pst (default) or zeromorph")
	flag.Parse()

	log.SetFlags(log.LstdFlags | log.Lmsgprefix)
	log.SetPrefix("zkproverd: ")

	opts := []zkspeed.Option{}
	if *seed != 0 {
		opts = append(opts, zkspeed.WithEntropy(zkspeed.SeededEntropy(*seed)))
	}
	if *pcsScheme != "" {
		opts = append(opts, zkspeed.WithPCSScheme(*pcsScheme))
	}
	if *workers > 0 {
		opts = append(opts, zkspeed.WithParallelism(*workers))
	}
	if *verbose {
		opts = append(opts, zkspeed.WithProveHook(func(st zkspeed.ProofStats) {
			log.Printf("proved mu=%d (%d gates) in %v, %d-byte proof, cached setup: %v",
				st.Mu, st.NumGates, st.ProverTime.Round(time.Microsecond), st.ProofBytes, st.SetupCached)
		}))
	}

	// The flag contract is "0 disables"; the config encodes disabled as
	// negative (its 0 selects the default).
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
		StoreDir:      *storeDir,
		StoreSync:     *storeSync,
		TenantsFile:   *tenantsFile,
	}, opts...)
	if err != nil {
		log.Fatal(err)
	}
	defer svc.Close()

	if rec := svc.Recovery(); rec.Durable {
		log.Printf("job store %s: recovered %d circuit(s), re-queued %d job(s), restored %d result(s), %d failure(s)",
			*storeDir, rec.Circuits, rec.Requeued, rec.Results, rec.Failures)
		if *seed == 0 && rec.Requeued > 0 {
			log.Printf("warning: re-queued jobs will re-prove under fresh entropy (run with -seed for byte-identical proofs across restarts)")
		}
	}
	if *tenantsFile != "" {
		log.Printf("tenant auth enabled from %s", *tenantsFile)
	}

	// The daemon is alive as soon as it listens but ready only once the
	// preload finished — load balancers watch /readyz.
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
		log.Printf("serving on %s (%d batch loop(s), queue %d, batch window %v, cache %d)",
			*addr, *shards, *queueCap, *batchWindow, *cacheSize)
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
		// Drop readiness first so load balancers stop routing new work,
		// then drain in-flight HTTP exchanges.
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

// parseMus parses a comma-separated -preload-mu list.
func parseMus(list string) ([]int, error) {
	if list == "" {
		return nil, nil
	}
	var mus []int
	for _, f := range strings.Split(list, ",") {
		mu, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			return nil, fmt.Errorf("bad -preload-mu entry %q: %v", f, err)
		}
		if mu < 2 || mu > zkspeed.MaxMu {
			return nil, fmt.Errorf("-preload-mu %d out of the supported functional range [2,%d]", mu, zkspeed.MaxMu)
		}
		mus = append(mus, mu)
	}
	return mus, nil
}

// preloadCircuits registers synthetic workloads for the listed sizes so
// the SRS ceremonies and key setups run before the first request arrives.
func preloadCircuits(svc *zkspeed.ProverService, list string, seed int64) error {
	if seed == 0 {
		seed = 1
	}
	mus, err := parseMus(list)
	if err != nil {
		return err
	}
	for _, mu := range mus {
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
