package serve

// HTTP-surface tests for the overload contract: deadline plumbing
// (X-Deadline-Ms / DefaultDeadline → 504), admission-control shedding
// (429 + Retry-After) and the structured queue-full 503.

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"topoopt"
)

func TestDeadlineHeaderRejectsGarbage(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, bad := range []string{"abc", "-5", "0", "1.5"} {
		resp, raw, _ := postPlan(t, ts.URL, testRequest(1), map[string]string{"X-Deadline-Ms": bad})
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("X-Deadline-Ms=%q: status %d, want 400", bad, resp.StatusCode)
			continue
		}
		if e := decodeAPIError(t, raw); e.Code != "bad_deadline" {
			t.Errorf("X-Deadline-Ms=%q: code %q, want bad_deadline", bad, e.Code)
		}
	}
}

func TestDeadlineHeaderExpiryIs504(t *testing.T) {
	s := New(Config{Workers: 1,
		Optimize: func(ctx context.Context, m *topoopt.Model, o topoopt.Options) (*topoopt.Plan, error) {
			<-ctx.Done()
			return nil, ctx.Err()
		}})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, raw, _ := postPlan(t, ts.URL, testRequest(1), map[string]string{"X-Deadline-Ms": "30"})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504", resp.StatusCode)
	}
	if e := decodeAPIError(t, raw); e.Code != "deadline_exceeded" {
		t.Errorf("code %q, want deadline_exceeded", e.Code)
	}
}

func TestDefaultDeadlineAppliesWithoutHeader(t *testing.T) {
	s := New(Config{Workers: 1, DefaultDeadline: 30 * time.Millisecond,
		Optimize: func(ctx context.Context, m *topoopt.Model, o topoopt.Options) (*topoopt.Plan, error) {
			<-ctx.Done()
			return nil, ctx.Err()
		}})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, _, _ := postPlan(t, ts.URL, testRequest(1), nil)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504 from the default deadline", resp.StatusCode)
	}
}

// TestShedding429WhenQueueWaitExceedsDeadline drives the admission
// controller directly: with an observed mean service time of 1s, one
// busy worker and a backlog, a request that only has 100ms left is shed
// with a 429 whose Retry-After reflects the estimated wait.
func TestShedding429WhenQueueWaitExceedsDeadline(t *testing.T) {
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	defer close(release)
	s := New(Config{Workers: 1, QueueLen: 8,
		Optimize: func(ctx context.Context, m *topoopt.Model, o topoopt.Options) (*topoopt.Plan, error) {
			select {
			case started <- struct{}{}:
			default:
			}
			select {
			case <-release:
			case <-ctx.Done(): // Close cancels workers; don't wedge wg.Wait
				return nil, ctx.Err()
			}
			return stubPlan(t), nil
		}})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	s.met.svc.Observe(1.0) // pretend searches take 1s

	// Occupy the worker, then build a backlog of queued jobs.
	if _, err := s.SubmitJob(testRequest(1)); err != nil {
		t.Fatal(err)
	}
	<-started
	for seed := int64(2); seed <= 4; seed++ {
		if _, err := s.SubmitJob(testRequest(seed)); err != nil {
			t.Fatal(err)
		}
	}
	if len(s.queue) == 0 {
		t.Fatal("backlog did not build; shedding has nothing to act on")
	}

	resp, raw, _ := postPlan(t, ts.URL, testRequest(99), map[string]string{"X-Deadline-Ms": "100"})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || ra < 1 {
		t.Errorf("Retry-After = %q, want a positive integer", resp.Header.Get("Retry-After"))
	}
	e := decodeAPIError(t, raw)
	if e.Code != "overloaded" {
		t.Errorf("code %q, want overloaded", e.Code)
	}
	if !strings.HasPrefix(e.Detail, "queue_depth=") {
		t.Errorf("detail = %q, want queue_depth=N", e.Detail)
	}
	if e.RetryAfterSeconds != ra {
		t.Errorf("body retry_after_seconds %d != header %d", e.RetryAfterSeconds, ra)
	}
	if m := s.Metrics(); m.Shed < 1 {
		t.Errorf("shed counter = %d, want >= 1", m.Shed)
	}

	// A request with no deadline is never shed: it queues (or coalesces)
	// instead. Use an already-in-flight fingerprint so it coalesces and
	// does not need a free queue slot.
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, _, _, err := s.Plan(ctx, testRequest(2))
		done <- err
	}()
	select {
	case err := <-done:
		t.Fatalf("deadline-free request returned early: %v (should wait, not shed)", err)
	case <-time.After(50 * time.Millisecond):
	}
	cancel()
	<-done
}

// TestQueueFull503StructuredResponses is the satellite table test: every
// admission endpoint returns the structured queue-full envelope with a
// queue_depth gauge and a Retry-After header once the worker pool and
// queue are saturated.
func TestQueueFull503StructuredResponses(t *testing.T) {
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	defer close(release)
	s := New(Config{Workers: 1, QueueLen: 1,
		Optimize: func(ctx context.Context, m *topoopt.Model, o topoopt.Options) (*topoopt.Plan, error) {
			select {
			case started <- struct{}{}:
			default:
			}
			select {
			case <-release:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			return stubPlan(t), nil
		}})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Saturate: one job on the worker, one in the queue slot.
	if _, err := s.SubmitJob(testRequest(1)); err != nil {
		t.Fatal(err)
	}
	<-started
	if _, err := s.SubmitJob(testRequest(2)); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name   string
		method string
		path   string
		seed   int64
	}{
		{"plan", http.MethodPost, "/v1/plan", 3},
		{"jobs", http.MethodPost, "/v1/jobs", 4},
		{"compare", http.MethodPost, "/v1/compare", 5},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, raw := postJSON(t, ts.URL+tc.path, testRequest(tc.seed))
			if resp.StatusCode != http.StatusServiceUnavailable {
				t.Fatalf("status %d, want 503", resp.StatusCode)
			}
			if got := resp.Header.Get("Retry-After"); got == "" {
				t.Error("queue-full 503 must carry Retry-After")
			}
			e := decodeAPIError(t, raw)
			if e.Code != "queue_full" {
				t.Errorf("code %q, want queue_full", e.Code)
			}
			if !strings.HasPrefix(e.Detail, "queue_depth=") {
				t.Errorf("detail = %q, want queue_depth=N", e.Detail)
			}
		})
	}
}
