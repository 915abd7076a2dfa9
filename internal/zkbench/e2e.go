package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"zkspeed"
	"zkspeed/api"
)

// e2eSuite builds the end-to-end records at one problem size mu, as one
// group: a steady-state Engine.Prove, the cold start it amortizes away
// and an Engine.Verify of the same statement. The prove record primes its
// Engine's SRS and key caches in Setup, so the timed iterations measure
// the paper's per-proof latency; the setup record times exactly what the
// prove record primes, on a fresh Engine per iteration.
func e2eSuite(mu int, seed int64) []benchmark {
	var (
		eng     *zkspeed.Engine
		circuit *zkspeed.Circuit
		assign  *zkspeed.Assignment
	)
	prove := benchmark{
		Name: fmt.Sprintf("e2e/prove/mu%d", mu),
		Setup: func() error {
			eng = zkspeed.New(zkspeed.WithEntropy(zkspeed.SeededEntropy(seed)))
			var err error
			circuit, assign, _, err = zkspeed.SyntheticWorkloadSeeded(mu, seed)
			if err != nil {
				return err
			}
			// Prime the SRS ceremony and key preprocessing so no
			// iteration (warmup included) pays one-time setup.
			_, _, err = eng.Setup(context.Background(), circuit)
			return err
		},
		Iterate: func() error {
			_, err := eng.Prove(context.Background(), circuit, assign)
			return err
		},
	}
	// The cold start: a fresh Engine's SRS ceremony plus this circuit's
	// digest and key preprocessing — what the first proof of a new
	// process waits for.
	var coldCircuit *zkspeed.Circuit
	setup := benchmark{
		Name: fmt.Sprintf("e2e/setup/mu%d", mu),
		Setup: func() error {
			var err error
			coldCircuit, _, _, err = zkspeed.SyntheticWorkloadSeeded(mu, seed)
			return err
		},
		Iterate: func() error {
			cold := zkspeed.New(zkspeed.WithEntropy(zkspeed.SeededEntropy(seed)))
			if err := cold.WarmSRS(context.Background(), mu); err != nil {
				return err
			}
			_, _, err := cold.Setup(context.Background(), coldCircuit)
			return err
		},
	}
	// What a verifier pays for the same statement: Engine.Verify of one
	// proof (sumcheck replays and the PCS opening check), keys cached.
	var (
		vEng     *zkspeed.Engine
		vCircuit *zkspeed.Circuit
		vResult  *zkspeed.ProofResult
	)
	verify := benchmark{
		Name: fmt.Sprintf("e2e/verify/mu%d", mu),
		Setup: func() error {
			vEng = zkspeed.New(zkspeed.WithEntropy(zkspeed.SeededEntropy(seed)))
			var assign *zkspeed.Assignment
			var err error
			vCircuit, assign, _, err = zkspeed.SyntheticWorkloadSeeded(mu, seed)
			if err != nil {
				return err
			}
			vResult, err = vEng.Prove(context.Background(), vCircuit, assign)
			return err
		},
		Iterate: func() error {
			return vEng.Verify(context.Background(), vCircuit, vResult.PublicInputs, vResult.Proof)
		},
	}
	return []benchmark{prove, setup, verify}
}

// serviceSuite builds the service records at problem size mu: proofs
// driven through zkproverd's full HTTP path (decode, queue, batch window,
// Engine, proof serialization) against a loopback server with the
// default batch window and the proof cache off, so every iteration
// really proves. Four variants, in the two pairs CI gates:
//   - http_prove is one JSON request;
//   - http_prove_pair is http_prove sent by two clients at once, one
//     request each per iteration. The witness is the same, so the pair
//     costs one proof when the two share a batch (the in-flight dedup)
//     and two when the service proves them one after the other;
//   - http_prove_durable is http_prove on a service with a WAL store
//     under the default fsync-every-record policy;
//   - http_prove_stream sends the same witness as the raw body of
//     POST /v1/prove_stream to that durable service, so the two differ
//     only in how the witness reaches the log.
func serviceSuite(mu int, seed int64) [][]benchmark {
	var out []benchmark
	for _, variant := range []string{"http_prove", "http_prove_pair", "http_prove_durable", "http_prove_stream"} {
		variant := variant
		durable := variant == "http_prove_durable" || variant == "http_prove_stream"
		stream := variant == "http_prove_stream"
		var (
			svc      *zkspeed.ProverService
			server   *http.Server
			storeDir string
			baseURL  string
			reqBlob  []byte
			witness  []byte
			digest   string
			hc       *http.Client
		)
		proveOnce := func() error {
			var resp *http.Response
			var err error
			if stream {
				resp, err = hc.Post(baseURL+"/v1/prove_stream?wait=true&circuit_digest="+digest,
					"application/octet-stream", bytes.NewReader(witness))
			} else {
				resp, err = hc.Post(baseURL+"/v1/prove", "application/json", bytes.NewReader(reqBlob))
			}
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
			if proved.Cached {
				return fmt.Errorf("prove: answered from the proof cache")
			}
			return nil
		}
		iterate := proveOnce
		if variant == "http_prove_pair" {
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
				var err error
				if durable {
					if storeDir, err = os.MkdirTemp("", "zkbench-store-"); err != nil {
						return err
					}
					svcCfg.StoreDir = storeDir
				}
				svc, err = zkspeed.NewService(svcCfg, zkspeed.WithEntropy(zkspeed.SeededEntropy(seed)))
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
				circuit, assign, _, err := zkspeed.SyntheticWorkloadSeeded(mu, seed)
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
				return err
			},
			Iterate: iterate,
			Teardown: func() {
				server.Close()
				svc.Close()
				if storeDir != "" {
					os.RemoveAll(storeDir)
				}
			},
		})
	}
	return [][]benchmark{out[:2], out[2:]}
}

// fairshareSuite builds service/fairshare/muN/{solo,contended}, tenant
// isolation under the deficit-round-robin scheduler: solo is a
// quota-respecting tenant's HTTP prove latency on an idle service;
// contended is the same tenant's latency while a second tenant keeps the
// queue saturated with its own jobs. Without fair share the victim would
// wait behind the flooder's entire backlog, two orders of magnitude
// worse; CI's gate is a starvation tripwire on that. The two run apart,
// each a group of its own: between its iterations the contended service
// keeps proving the flooder's backlog, which would load solo's.
func fairshareSuite(mu int, seed int64) [][]benchmark {
	var out [][]benchmark
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
		out = append(out, []benchmark{{
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
				}, zkspeed.WithEntropy(zkspeed.SeededEntropy(seed)))
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

				victimCircuit, victimAssign, _, err := zkspeed.SyntheticWorkloadSeeded(mu, seed)
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
				floodCircuit, floodAssign, _, err := zkspeed.SyntheticWorkloadSeeded(mu, seed+1)
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
		}})
	}
	return out
}

// suite is the whole suite at sz, as the groups the runner interleaves:
// kernels, end-to-end, then the service records.
func suite(sz sizes, seed int64) [][]benchmark {
	out := append(kernelSuite(sz, seed), e2eSuite(sz.Prove, seed))
	out = append(out, serviceSuite(sz.Service, seed)...)
	return append(out, fairshareSuite(sz.Service, seed)...)
}
