package zkspeed

// PST-specific engine surface: the concrete-SRS accessor predating the
// PCS interface. This file is allowed to name *pcs.SRS; the rest of the
// root package reaches commitments only through pcs.PCS
// (layering_test.go enforces it).

import (
	"context"
	"fmt"

	"zkspeed/internal/pcs"
)

// SRSFor returns the Engine's universal PST SRS for 2^mu-gate circuits,
// running the simulated ceremony on first use. The returned SRS may be
// preloaded into another Engine via WithSRS — the reuse hook for sharing
// one ceremony across processes. Engines configured for a non-PST scheme
// (WithPCSScheme) have no concrete SRS to expose and return an error;
// use WarmSRS for scheme-agnostic cache warming.
func (e *Engine) SRSFor(ctx context.Context, mu int) (*SRS, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	b, err := e.srsFor(ctx, mu)
	if err != nil {
		return nil, err
	}
	s, ok := b.(*pcs.SRS)
	if !ok {
		return nil, fmt.Errorf("zkspeed: engine uses scheme %q, which has no PST SRS; use WarmSRS", e.PCSScheme())
	}
	return s, nil
}
