package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"zkspeed"
	"zkspeed/api"
	"zkspeed/internal/store"
)

// e2eSuite builds the end-to-end suite: one Engine.Prove benchmark,
// one cold-start benchmark and one Engine.Verify benchmark per problem
// size in cfg.E2EMus. The prove case primes its Engine's SRS and key
// caches in Setup, so the timed iterations measure steady-state proving
// (the paper's per-proof latency, setup amortized away), and runs the
// Engine WithTimings so every record decomposes into per-step kernel
// shares analogous to the paper's Table 1 profile. The setup
// case times exactly what the prove case primes, on a fresh Engine per
// iteration.
func e2eSuite(cfg suiteConfig) []benchmark {
	var out []benchmark
	for _, mu := range cfg.E2EMus {
		mu := mu
		var (
			eng     *zkspeed.Engine
			circuit *zkspeed.Circuit
			assign  *zkspeed.Assignment
			steps   stepMeans
		)
		out = append(out, benchmark{
			Name: fmt.Sprintf("e2e/prove/mu%d", mu),
			Setup: func() error {
				eng = zkspeed.New(zkspeed.WithEntropy(zkspeed.SeededEntropy(cfg.Seed)), zkspeed.WithTimings())
				var err error
				circuit, assign, _, err = zkspeed.SyntheticWorkloadSeeded(mu, cfg.Seed)
				if err != nil {
					return err
				}
				steps.reset()
				// Prime the SRS ceremony and key preprocessing so no
				// iteration (warmup included) pays one-time setup.
				_, _, err = eng.Setup(context.Background(), circuit)
				return err
			},
			// Warmup iterations also pass through Iterate; resetting here
			// keeps the steps a mean over exactly the measured reps, in
			// line with the record's warmup-excluded stats.
			StartMeasured: steps.reset,
			Iterate: func() error {
				res, err := eng.Prove(context.Background(), circuit, assign)
				if err != nil {
					return err
				}
				for k, v := range res.StepBreakdown() {
					steps.sum[k] += v
				}
				steps.reps++
				return nil
			},
			Steps: steps.mean,
		})
		// The cold start the steady-state record amortizes away: a fresh
		// Engine's SRS ceremony plus this circuit's digest and key
		// preprocessing — what the first proof of a new process waits for.
		var coldCircuit *zkspeed.Circuit
		out = append(out, benchmark{
			Name: fmt.Sprintf("e2e/setup/mu%d", mu),
			Setup: func() error {
				var err error
				coldCircuit, _, _, err = zkspeed.SyntheticWorkloadSeeded(mu, cfg.Seed)
				return err
			},
			Iterate: func() error {
				cold := zkspeed.New(zkspeed.WithEntropy(zkspeed.SeededEntropy(cfg.Seed)))
				if err := cold.WarmSRS(context.Background(), mu); err != nil {
					return err
				}
				_, _, err := cold.Setup(context.Background(), coldCircuit)
				return err
			},
		})
		// What a verifier pays for the same statement: Engine.Verify of
		// one proof (sumcheck replays, the batched commitment combination
		// and the PCS opening check), keys cached.
		var (
			vEng     *zkspeed.Engine
			vCircuit *zkspeed.Circuit
			vResult  *zkspeed.ProofResult
		)
		out = append(out, benchmark{
			Name: fmt.Sprintf("e2e/verify/mu%d", mu),
			Setup: func() error {
				vEng = zkspeed.New(zkspeed.WithEntropy(zkspeed.SeededEntropy(cfg.Seed)))
				var assign *zkspeed.Assignment
				var err error
				vCircuit, assign, _, err = zkspeed.SyntheticWorkloadSeeded(mu, cfg.Seed)
				if err != nil {
					return err
				}
				vResult, err = vEng.Prove(context.Background(), vCircuit, assign)
				return err
			},
			Iterate: func() error {
				return vEng.Verify(context.Background(), vCircuit, vResult.PublicInputs, vResult.Proof)
			},
		})
	}
	return out
}

// serviceSuite builds the service-level suite: proofs driven through
// zkproverd's full HTTP path (decode, queue, batch window, Engine, proof
// serialization) against a loopback server with the default batch
// window. Five cases per problem size:
//   - http_prove measures the uncached end-to-end latency (the proof
//     cache is disabled so every iteration really proves, with the steps
//     relayed from the service response);
//   - http_prove_cached repeats one identical request so the measurement
//     isolates the service overhead floor — HTTP + cache lookup, no
//     proving;
//   - http_prove_durable is http_prove on a service with a WAL store
//     under the default fsync-every-record policy;
//   - http_prove_stream sends the same witness as the raw body of
//     POST /v1/prove_stream to that durable service, so the two differ
//     only in how the witness reaches the log (CI gates the pair);
//   - http_prove_pair is http_prove sent by two clients at once, one
//     request each per iteration. The witness is the same, so the pair
//     costs one proof when the two share a batch (the in-flight dedup)
//     and two when the service proves them one after the other; CI
//     gates it against http_prove.
func serviceSuite(cfg suiteConfig) []benchmark {
	var out []benchmark
	for _, mu := range cfg.ServiceMus {
		for _, variant := range []string{"http_prove", "http_prove_cached", "http_prove_durable", "http_prove_stream", "http_prove_pair"} {
			mu, variant := mu, variant
			cached := variant == "http_prove_cached"
			durable := variant == "http_prove_durable" || variant == "http_prove_stream"
			stream := variant == "http_prove_stream"
			pair := variant == "http_prove_pair"
			var (
				svc      *zkspeed.ProverService
				server   *http.Server
				storeDir string
				baseURL  string
				reqBlob  []byte
				witness  []byte
				digest   string
				hc       *http.Client
				steps    stepMeans
				stepsMu  sync.Mutex // a pair's two answers land at once
			)
			post := func() (*http.Response, error) {
				if stream {
					return hc.Post(baseURL+"/v1/prove_stream?wait=true&circuit_digest="+digest,
						"application/octet-stream", bytes.NewReader(witness))
				}
				return hc.Post(baseURL+"/v1/prove", "application/json", bytes.NewReader(reqBlob))
			}
			proveOnce := func() error {
				resp, err := post()
				if err != nil {
					return err
				}
				defer resp.Body.Close()
				var proved api.ProveResponse
				if err := json.NewDecoder(resp.Body).Decode(&proved); err != nil {
					return err
				}
				if resp.StatusCode != http.StatusOK || proved.Status != api.StatusDone {
					return fmt.Errorf("prove: HTTP %d, status %q (%s)", resp.StatusCode, proved.Status, proved.Error)
				}
				if cached != proved.Cached {
					return fmt.Errorf("prove: cached=%v, want %v", proved.Cached, cached)
				}
				stepsMu.Lock()
				defer stepsMu.Unlock()
				for k, v := range proved.StepsNS {
					steps.sum[k] += time.Duration(v)
				}
				steps.reps++
				return nil
			}
			iterate := proveOnce
			if pair {
				iterate = func() error {
					errs := make(chan error, 2)
					for range 2 {
						go func() { errs <- proveOnce() }()
					}
					return errors.Join(<-errs, <-errs)
				}
			}
			out = append(out, benchmark{
				Name: fmt.Sprintf("service/%s/mu%d", variant, mu),
				Setup: func() error {
					svcCfg := zkspeed.ServiceConfig{
						CacheSize: -1, // every iteration must prove
					}
					if cached {
						svcCfg.CacheSize = 4
					}
					var err error
					if durable {
						if storeDir, err = os.MkdirTemp("", "zkbench-store-"); err != nil {
							return err
						}
						svcCfg.StoreDir = storeDir
					}
					svc, err = zkspeed.NewService(svcCfg, zkspeed.WithEntropy(zkspeed.SeededEntropy(cfg.Seed)))
					if err != nil {
						return err
					}
					ln, err := net.Listen("tcp", "127.0.0.1:0")
					if err != nil {
						return err
					}
					server = &http.Server{Handler: svc.Handler()}
					go server.Serve(ln)
					baseURL = "http://" + ln.Addr().String()
					hc = &http.Client{}
					circuit, assign, _, err := zkspeed.SyntheticWorkloadSeeded(mu, cfg.Seed)
					if err != nil {
						return err
					}
					// Preload warms the SRS ceremony and key preprocessing
					// so iterations measure steady-state service latency.
					info, err := svc.Preload(context.Background(), circuit)
					if err != nil {
						return err
					}
					digest = info.Digest
					if witness, err = assign.MarshalBinary(); err != nil {
						return err
					}
					reqBlob, err = json.Marshal(api.ProveRequest{
						CircuitDigest: info.Digest, Witness: witness, Wait: true,
					})
					if err != nil {
						return err
					}
					steps.reset()
					if cached {
						// One priming prove populates the cache; every
						// timed iteration then hits it.
						resp, err := post()
						if err != nil {
							return err
						}
						resp.Body.Close()
						if resp.StatusCode != http.StatusOK {
							return fmt.Errorf("priming prove: HTTP %d", resp.StatusCode)
						}
					}
					return nil
				},
				StartMeasured: steps.reset,
				Iterate:       iterate,
				Steps:         steps.mean,
				Teardown: func() {
					server.Close()
					svc.Close()
					if storeDir != "" {
						os.RemoveAll(storeDir)
					}
				},
			})
		}
	}
	return out
}

// durabilitySuite builds the durable-store and multi-tenant suite.
//
// service/recovery/jobsN measures crash recovery itself: Setup populates
// a WAL with a circuit blob and N jobs (half completed with results, half
// still pending) and every iteration replays the log from disk — the
// startup cost a durable zkproverd pays before it can serve, which must
// stay linear in log size and cheap enough to keep restarts routine.
//
// service/fairshare/muN/{solo,contended} measures tenant isolation under
// the deficit-round-robin scheduler: solo is a quota-respecting tenant's
// HTTP prove latency on an idle service; contended is the same tenant's
// latency while a second tenant keeps the queue saturated with its own
// jobs. CI asserts contended stays within 2x solo (see the bench-gate
// -assert-faster expression) — without fair-share the victim would wait
// behind the flooder's entire backlog, two orders of magnitude worse.
func durabilitySuite(cfg suiteConfig) []benchmark {
	mu := cfg.ServiceMus[0]
	const recoveryJobs = 64
	var out []benchmark

	var walDir string
	out = append(out, benchmark{
		Name: fmt.Sprintf("service/recovery/jobs%d", recoveryJobs),
		Setup: func() error {
			var err error
			walDir, err = os.MkdirTemp("", "zkbench-recovery-")
			if err != nil {
				return err
			}
			w, err := store.OpenWAL(store.WALConfig{Dir: walDir})
			if err != nil {
				return err
			}
			circuit, assign, _, err := zkspeed.SyntheticWorkloadSeeded(mu, cfg.Seed)
			if err != nil {
				return err
			}
			blob, err := circuit.MarshalBinary()
			if err != nil {
				return err
			}
			digest := sha256.Sum256(blob)
			if err := w.PutCircuit(digest, blob); err != nil {
				return err
			}
			witness, err := assign.MarshalBinary()
			if err != nil {
				return err
			}
			for i := 0; i < recoveryJobs; i++ {
				id := fmt.Sprintf("job-%06x", i+1)
				if err := w.Submit(store.JobRecord{ID: id, Circuit: digest, Witness: witness}); err != nil {
					return err
				}
				// Half the log is completed jobs: replay must both
				// re-queue pending work and restore finished results.
				if i%2 == 0 {
					proof := witness
					if len(proof) > 4096 {
						proof = proof[:4096]
					}
					if err := w.Complete(store.Result{ID: id, Circuit: digest, Proof: proof}); err != nil {
						return err
					}
				}
			}
			return w.Close()
		},
		Iterate: func() error {
			w, err := store.OpenWAL(store.WALConfig{Dir: walDir})
			if err != nil {
				return err
			}
			st := w.State()
			if got := len(st.Pending) + len(st.Done); got != recoveryJobs {
				w.Close()
				return fmt.Errorf("recovery replayed %d jobs, want %d", got, recoveryJobs)
			}
			return w.Close()
		},
		Teardown: func() {
			if walDir != "" {
				os.RemoveAll(walDir)
			}
		},
	})

	for _, contended := range []bool{false, true} {
		contended := contended
		variant := "solo"
		if contended {
			variant = "contended"
		}
		var (
			svc       *zkspeed.ProverService
			server    *http.Server
			tmpDir    string
			baseURL   string
			hc        *http.Client
			victimReq []byte
			floodReq  []byte
			iter      int
		)
		post := func(key string, blob []byte) (*api.ProveResponse, int, error) {
			req, err := http.NewRequest(http.MethodPost, baseURL+"/v1/prove", bytes.NewReader(blob))
			if err != nil {
				return nil, 0, err
			}
			req.Header.Set("Content-Type", "application/json")
			req.Header.Set("Authorization", "Bearer "+key)
			resp, err := hc.Do(req)
			if err != nil {
				return nil, 0, err
			}
			defer resp.Body.Close()
			var proved api.ProveResponse
			if err := json.NewDecoder(resp.Body).Decode(&proved); err != nil {
				return nil, resp.StatusCode, err
			}
			return &proved, resp.StatusCode, nil
		}
		// The flooder ignores backpressure: push until the queue's 429.
		saturate := func() error {
			for i := 0; i < 4096; i++ {
				_, code, err := post("flooder-key", floodReq)
				if err != nil {
					return err
				}
				if code == http.StatusTooManyRequests {
					return nil
				}
			}
			return fmt.Errorf("fairshare: queue never saturated")
		}
		out = append(out, benchmark{
			Name: fmt.Sprintf("service/fairshare/mu%d/%s", mu, variant),
			Setup: func() error {
				var err error
				tmpDir, err = os.MkdirTemp("", "zkbench-fairshare-")
				if err != nil {
					return err
				}
				tenantsPath := filepath.Join(tmpDir, "tenants.json")
				// The flooder saturates its own in-flight quota (64 queued
				// jobs — many minutes of backlog against one victim prove);
				// the quota keeps it from eating the whole queue, which is
				// the admission half of tenant isolation.
				tenants := `{"tenants":[` +
					`{"id":"victim","key":"victim-key"},` +
					`{"id":"flooder","key":"flooder-key","max_inflight":64}]}`
				if err := os.WriteFile(tenantsPath, []byte(tenants), 0o644); err != nil {
					return err
				}
				// Coalescing and caching off, one job per ProveBatch: the
				// victim's latency must come from scheduling, and a flooder
				// mega-batch would hold the loop for MaxBatch proofs.
				svc, err = zkspeed.NewService(zkspeed.ServiceConfig{
					BatchWindow:   -1,
					MaxBatch:      1,
					CacheSize:     -1,
					QueueCapacity: 256,
					TenantsFile:   tenantsPath,
				}, zkspeed.WithEntropy(zkspeed.SeededEntropy(cfg.Seed)))
				if err != nil {
					return err
				}
				ln, err := net.Listen("tcp", "127.0.0.1:0")
				if err != nil {
					return err
				}
				server = &http.Server{Handler: svc.Handler()}
				go server.Serve(ln)
				baseURL = "http://" + ln.Addr().String()
				hc = &http.Client{}

				victimCircuit, victimAssign, _, err := zkspeed.SyntheticWorkloadSeeded(mu, cfg.Seed)
				if err != nil {
					return err
				}
				info, err := svc.Preload(context.Background(), victimCircuit)
				if err != nil {
					return err
				}
				witness, err := victimAssign.MarshalBinary()
				if err != nil {
					return err
				}
				victimReq, err = json.Marshal(api.ProveRequest{
					CircuitDigest: info.Digest, Witness: witness, Wait: true,
				})
				if err != nil {
					return err
				}
				if !contended {
					return nil
				}
				// A distinct flooder circuit (different seed) keeps the two
				// tenants' jobs from ever sharing a batch.
				floodCircuit, floodAssign, _, err := zkspeed.SyntheticWorkloadSeeded(mu, cfg.Seed+1)
				if err != nil {
					return err
				}
				floodInfo, err := svc.Preload(context.Background(), floodCircuit)
				if err != nil {
					return err
				}
				floodWitness, err := floodAssign.MarshalBinary()
				if err != nil {
					return err
				}
				floodReq, err = json.Marshal(api.ProveRequest{
					CircuitDigest: floodInfo.Digest, Witness: floodWitness,
				})
				if err != nil {
					return err
				}
				return saturate()
			},
			// Re-saturate untimed before every victim prove so each
			// measured iteration sees a full backlog, not whatever the
			// previous iterations drained. The deterministic stagger
			// breaks phase lock with the loop's prove cycle: without it
			// every victim request would land just after a flooder proof
			// started and measure the worst-case remainder every rep,
			// instead of the uniform arrival phase real tenants have.
			Before: func() error {
				if !contended {
					return nil
				}
				if err := saturate(); err != nil {
					return err
				}
				iter++
				time.Sleep(time.Duration(iter*37%97) * time.Millisecond)
				return nil
			},
			Iterate: func() error {
				proved, code, err := post("victim-key", victimReq)
				if err != nil {
					return err
				}
				if code != http.StatusOK || proved.Status != api.StatusDone {
					return fmt.Errorf("victim prove: HTTP %d, status %q (%s)", code, proved.Status, proved.Error)
				}
				return nil
			},
			Teardown: func() {
				if server != nil {
					server.Close()
				}
				if svc != nil {
					svc.Close()
				}
				if tmpDir != "" {
					os.RemoveAll(tmpDir)
				}
			},
		})
	}
	return out
}

// suite is the full structured suite: kernels, end-to-end,
// then service-level (HTTP prove plus durability and fair-share).
func suite(cfg suiteConfig) []benchmark {
	out := append(kernelSuite(cfg), e2eSuite(cfg)...)
	out = append(out, serviceSuite(cfg)...)
	return append(out, durabilitySuite(cfg)...)
}

// stepMeans accumulates per-step durations over a benchmark's iterations
// and reports their means as its Steps decomposition.
type stepMeans struct {
	sum  map[string]time.Duration
	reps int
}

func (m *stepMeans) reset() { m.sum, m.reps = make(map[string]time.Duration), 0 }

func (m *stepMeans) mean() map[string]time.Duration {
	if m.reps == 0 {
		return nil
	}
	out := make(map[string]time.Duration, len(m.sum))
	for k, v := range m.sum {
		out[k] = v / time.Duration(m.reps)
	}
	return out
}
