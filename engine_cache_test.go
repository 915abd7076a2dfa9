package zkspeed

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"zkspeed/internal/pcs"
)

// doneHook is a context whose first Done call runs hook. The key cache
// calls Done only to wait on a flight it found, so the hook runs once
// the caller holds another caller's in-flight preprocessing.
type doneHook struct {
	context.Context
	once sync.Once
	hook func()
}

func (c *doneHook) Done() <-chan struct{} {
	c.once.Do(c.hook)
	return c.Context.Done()
}

// TestKeysWaiterRetriesAfterCreatorCancelled: caller A starts a
// circuit's preprocessing, caller B waits on it, and A's context is
// cancelled. B must not inherit A's cancellation: it retries under its
// own context and gets the keys, and the Engine counts one key setup.
func TestKeysWaiterRetriesAfterCreatorCancelled(t *testing.T) {
	e := New(WithEntropy(SeededEntropy(9)))
	b := NewBuilder()
	x := b.Witness(NewScalar(4))
	sq := b.Mul(x, x)
	b.AssertEqual(sq, b.PublicInput(b.Value(sq)))
	circuit, assignment, pub, err := b.Compile()
	if err != nil {
		t.Fatal(err)
	}

	// A ceremony that does not finish on its own holds A inside its
	// preprocessing until A's context is cancelled.
	ceremony := &flight[pcs.PCS]{done: make(chan struct{})}
	e.srs[circuit.Mu] = ceremony
	ctxA, cancelA := context.WithCancel(context.Background())
	defer cancelA()
	errA := make(chan error, 1)
	go func() {
		_, _, err := e.Setup(ctxA, circuit)
		errA <- err
	}()
	key := e.CircuitDigest(circuit)
	for {
		e.mu.Lock()
		_, started := e.keys[key]
		e.mu.Unlock()
		if started {
			break
		}
		time.Sleep(time.Millisecond)
	}

	// B cancels A as soon as it waits on A's flight.
	type keys struct {
		pk  *ProvingKey
		vk  *VerifyingKey
		err error
	}
	resB := make(chan keys, 1)
	go func() {
		pk, vk, err := e.Setup(&doneHook{Context: context.Background(), hook: cancelA}, circuit)
		resB <- keys{pk, vk, err}
	}()
	if err := <-errA; !errors.Is(err, context.Canceled) {
		t.Fatalf("creator returned %v, want context.Canceled", err)
	}
	// The stalled ceremony fails; B's retry derives the SRS itself.
	ceremony.err = errors.New("ceremony abandoned")
	close(ceremony.done)
	got := <-resB
	if got.err != nil {
		t.Fatalf("waiter inherited the creator's failure: %v", got.err)
	}
	if st := e.Stats(); st.KeySetups != 1 || st.SRSSetups != 1 || st.KeyCacheHits != 0 {
		t.Fatalf("stats %+v, want 1 key setup, 1 SRS setup, 0 cache hits", st)
	}
	res, err := e.Prove(context.Background(), circuit, assignment)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.VerifyWithKey(context.Background(), got.vk, pub, res.Proof); err != nil {
		t.Fatalf("proof under the retried keys rejected: %v", err)
	}
	if st := e.Stats(); st.KeySetups != 1 || st.KeyCacheHits != 1 {
		t.Fatalf("stats after a proof %+v, want the cached keys reused", st)
	}
}
