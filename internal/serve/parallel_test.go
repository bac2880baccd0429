package serve

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

// TestFingerprintParallelismSensitive pins the cache-identity contract
// for the new knob: parallelism changes the computed plan, so it must
// split cache entries; omitted and explicit-1 must share one.
func TestFingerprintParallelismSensitive(t *testing.T) {
	a := testRequest(1)
	b := testRequest(1)
	b.Options.Parallelism = 8
	if a.Fingerprint() == b.Fingerprint() {
		t.Error("parallelism must be part of the fingerprint")
	}
	c := testRequest(1)
	c.Options.Parallelism = 1
	if a.Fingerprint() != c.Fingerprint() {
		t.Error("omitted parallelism and explicit 1 must share a fingerprint")
	}
}

// TestChainBudget pins the thread-budget policy: demand-metered grants
// up to the request's Parallelism, a lone request on an idle budget gets
// everything it asks for, an exhausted budget still grants one (searches
// must progress), and releases restore the budget exactly.
func TestChainBudget(t *testing.T) {
	b := &chainBudget{avail: 8}
	if g := b.acquire(4); g != 4 {
		t.Fatalf("idle budget grant = %d, want 4", g)
	}
	if g := b.acquire(8); g != 4 {
		t.Fatalf("partial budget grant = %d, want the 4 remaining", g)
	}
	// Budget exhausted: the floor grants one and lets avail go negative.
	if g := b.acquire(2); g != 1 {
		t.Fatalf("exhausted budget grant = %d, want 1", g)
	}
	if g := b.acquire(0); g != 1 {
		t.Fatalf("sequential request grant = %d, want 1", g)
	}
	for _, n := range []int{4, 4, 1, 1} {
		b.release(n)
	}
	if b.avail != 8 {
		t.Fatalf("after releases avail = %d, want 8", b.avail)
	}
	if g := b.acquire(64); g != 8 {
		t.Fatalf("over-ask grant = %d, want full budget 8", g)
	}
	b.release(8)
}

// TestConcurrentParallelPlansUnderCancellation is the race-detector
// workout the CI race job runs: several clients request genuinely
// parallel searches (Parallelism > 1, real optimizer), half of them get
// cancelled mid-flight, and the service must neither deadlock nor panic,
// and must still answer the surviving clients correctly. The cancelled
// clients carry no deadline: admission sheds deadline-carrying requests it
// predicts will miss (see the shed tests), and that must not be mistaken
// for a cancellation failure here.
func TestConcurrentParallelPlansUnderCancellation(t *testing.T) {
	s := New(Config{Workers: 2, QueueLen: 32, SearchThreads: 4})
	defer s.Close()

	const clients = 6
	var wg sync.WaitGroup
	errs := make([]error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			req := testRequest(int64(100 + i))
			req.Options.Parallelism = 4
			req.Options.MCMCIters = 200
			ctx := context.Background()
			if i%2 == 0 {
				var cancel context.CancelFunc
				ctx, cancel = context.WithCancel(ctx)
				defer cancel()
				defer time.AfterFunc(5*time.Millisecond, cancel).Stop()
			}
			_, _, _, errs[i] = s.Plan(ctx, req)
		}(i)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(2 * time.Minute):
		t.Fatal("concurrent parallel plans deadlocked")
	}
	for i, err := range errs {
		if i%2 == 1 && err != nil {
			t.Errorf("uncancelled client %d failed: %v", i, err)
		}
		if i%2 == 0 && err != nil && !errors.Is(err, context.Canceled) {
			t.Errorf("cancelled client %d: unexpected error %v", i, err)
		}
	}
}
