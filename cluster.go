package zkspeed

// Public surface of the distributed proving cluster. The mechanics live
// in internal/cluster (wire protocol, coordinator, worker loop); this
// file contributes the Engine-backed construction on both sides —
// WithCluster turns NewService into a coordinator, JoinCluster builds a
// worker daemon — because internal/cluster cannot import the root
// package.

import (
	"bytes"
	"context"
	"time"

	"zkspeed/internal/cluster"
	"zkspeed/internal/service"
)

// ClusterConfig configures a coordinator, passed to NewService via
// WithCluster.
type ClusterConfig struct {
	// Listen is the TCP address workers join, e.g. ":9444" or
	// "127.0.0.1:0" (tests). Required.
	Listen string
	// HeartbeatInterval is the expected worker heartbeat cadence; default
	// 1s.
	HeartbeatInterval time.Duration
	// HeartbeatMisses is how many silent intervals drop a worker; default 3.
	HeartbeatMisses int
	// MaxRetries bounds how many times a batch is re-queued to another
	// worker after its worker dies mid-job; default 2.
	MaxRetries int
	// Logf receives coordinator log lines; nil discards them.
	Logf func(format string, args ...any)
}

// WithCluster makes NewService run as a cluster coordinator: it listens
// for worker daemons on cfg.Listen, dispatches the service's batches to
// them over the wire, and falls back to the local engine when no worker
// is registered. The local engine and every joining worker share one
// setup seed read from the service's entropy source, so proofs verify
// across the whole cluster and are byte-identical wherever they were
// produced.
// The option has no effect on a plain New engine.
func WithCluster(cfg ClusterConfig) Option {
	return func(c *engineConfig) { c.cluster = &cfg }
}

// ClusterWorkerConfig configures one worker daemon for JoinCluster.
type ClusterWorkerConfig struct {
	// Name identifies the worker in coordinator logs and GET /v1/cluster.
	Name string
	// Cores is the advertised proving parallelism; 0 advertises the
	// engine's parallelism default.
	Cores int
	// PreloadMus are problem sizes whose SRS to derive right after joining,
	// so the first dispatch pays no ceremony.
	PreloadMus []int
	// HeartbeatInterval overrides the 1s liveness cadence.
	HeartbeatInterval time.Duration
	// Logf receives worker log lines; nil discards them.
	Logf func(format string, args ...any)
}

// ClusterWorker is a proving daemon joined to a coordinator. Wait blocks
// until it leaves the cluster; Close leaves gracefully.
type ClusterWorker = cluster.Worker

// JoinCluster dials the coordinator at addr and runs a worker daemon over
// an Engine built with the given options. The engine's setup entropy is
// replaced by the cluster's shared seed (delivered in the join handshake),
// so the worker's proofs verify everywhere in the cluster; the remaining
// options (parallelism, caching, timings) apply as usual.
func JoinCluster(ctx context.Context, addr string, cfg ClusterWorkerConfig, opts ...Option) (*ClusterWorker, error) {
	wcfg := cluster.WorkerConfig{
		Name:              cfg.Name,
		Cores:             cfg.Cores,
		Scheme:            resolveSchemeName(opts),
		PreloadMus:        cfg.PreloadMus,
		HeartbeatInterval: cfg.HeartbeatInterval,
		Logf:              cfg.Logf,
		NewBackend: func(setupSeed []byte) (service.Backend, error) {
			engOpts := append(append([]Option{}, opts...),
				WithEntropy(bytes.NewReader(setupSeed)), WithTimings())
			return &engineBackend{eng: New(engOpts...)}, nil
		},
	}
	return cluster.Join(ctx, addr, wcfg)
}

// WarmSRS pre-derives the engine's universal setup for one problem size —
// the preload hook cluster workers run right after joining. It is
// scheme-agnostic: a Zeromorph engine warms its powers-of-τ setup the same
// way a PST engine warms its Lagrange-basis SRS.
func (b *engineBackend) WarmSRS(ctx context.Context, mu int) error {
	return b.eng.WarmSRS(ctx, mu)
}
