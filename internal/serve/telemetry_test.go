package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"
	"time"

	"topoopt"
	"topoopt/internal/telemetry"
)

// postPlan sends one POST /v1/plan and returns the response.
func tracePlan(t *testing.T, ts *httptest.Server, req PlanRequest) *http.Response {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(ts.URL+"/v1/plan", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/plan: %v", err)
	}
	return resp
}

func getDebugRequests(t *testing.T, ts *httptest.Server) []telemetry.Record {
	t.Helper()
	resp, err := http.Get(ts.URL + "/debug/requests")
	if err != nil {
		t.Fatalf("GET /debug/requests: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /debug/requests: status %d", resp.StatusCode)
	}
	var dr DebugRequests
	if err := json.NewDecoder(resp.Body).Decode(&dr); err != nil {
		t.Fatalf("decoding /debug/requests: %v", err)
	}
	return dr.Requests
}

func TestPlanTraceEndToEnd(t *testing.T) {
	// A deliberately slow stub makes the search stage dominate, so the
	// stage sum vs. wall time comparison is insensitive to scheduler
	// jitter in the sub-millisecond stages.
	s := New(Config{Workers: 2, Optimize: func(ctx context.Context, m *topoopt.Model, o topoopt.Options) (*topoopt.Plan, error) {
		time.Sleep(30 * time.Millisecond)
		return stubPlan(t), nil
	}})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	miss := tracePlan(t, ts, testRequest(1))
	miss.Body.Close()
	if miss.StatusCode != http.StatusOK {
		t.Fatalf("miss status = %d", miss.StatusCode)
	}
	xt := miss.Header.Get("X-Trace")
	if !strings.HasPrefix(xt, "total=") || !strings.Contains(xt, "search=") {
		t.Errorf("miss X-Trace = %q, want total=... with a search stage", xt)
	}

	hit := tracePlan(t, ts, testRequest(1))
	hit.Body.Close()
	if xt := hit.Header.Get("X-Trace"); !strings.HasPrefix(xt, "total=") {
		t.Errorf("hit X-Trace = %q, want total=...", xt)
	}
	if strings.Contains(hit.Header.Get("X-Trace"), "search=") {
		t.Errorf("cache hit should have no search stage: %q", hit.Header.Get("X-Trace"))
	}

	recs := getDebugRequests(t, ts)
	if len(recs) != 2 {
		t.Fatalf("got %d records, want 2", len(recs))
	}
	// Newest first: the hit, then the miss.
	if !recs[0].Cached || recs[1].Cached {
		t.Fatalf("record order/cached flags wrong: %+v", recs)
	}
	m := recs[1]
	if m.Endpoint != "plan" || m.Status != http.StatusOK {
		t.Errorf("miss record endpoint/status = %q/%d", m.Endpoint, m.Status)
	}
	if m.StageSumSeconds > m.TotalSeconds {
		t.Errorf("stage sum %.6fs exceeds total %.6fs", m.StageSumSeconds, m.TotalSeconds)
	}
	// The stages must account for nearly all of the wall time (the 5%%
	// acceptance bound, relaxed to 20%% here to keep CI deterministic —
	// the untraced gaps are scheduler handoffs, not missing stages).
	if m.StageSumSeconds < 0.8*m.TotalSeconds {
		t.Errorf("stage sum %.6fs < 80%% of total %.6fs", m.StageSumSeconds, m.TotalSeconds)
	}
	found := false
	for _, sp := range m.Stages {
		if sp.Stage == "search" && sp.Seconds >= 0.025 {
			found = true
		}
	}
	if !found {
		t.Errorf("miss record lacks a ≥25ms search stage: %+v", m.Stages)
	}

	// Stage quantiles surfaced in the JSON metrics snapshot.
	snap := s.Metrics()
	if snap.Stages["search"].Count == 0 {
		t.Error("metrics snapshot has no search-stage observations")
	}
	if snap.Stages["decode"].Count == 0 {
		t.Error("metrics snapshot has no decode-stage observations")
	}
}

func TestSearchProgressReported(t *testing.T) {
	// Real optimizer (default Optimize) so the MCMC epoch barriers feed
	// the flight's progress sink and the daemon-wide proposal counter.
	// DLRM has shardable layers (BERT does not, and a shard-free search
	// resolves before the first barrier); 60 iterations crosses the
	// 25-proposal epoch barrier at least twice.
	s := New(Config{Workers: 1})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	req := PlanRequest{
		Model: topoopt.ModelSpec{Preset: "dlrm", Section: "6"},
		Options: topoopt.Options{Servers: 4, Degree: 2, LinkBandwidth: 25e9,
			Rounds: 1, MCMCIters: 60, Seed: 7},
	}
	resp := tracePlan(t, ts, req)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("plan status = %d", resp.StatusCode)
	}
	recs := getDebugRequests(t, ts)
	if len(recs) != 1 {
		t.Fatalf("got %d records, want 1", len(recs))
	}
	if recs[0].SearchTotal != 60 {
		t.Errorf("SearchTotal = %d, want 60", recs[0].SearchTotal)
	}
	if recs[0].SearchDone <= 0 || recs[0].SearchDone > 60 {
		t.Errorf("SearchDone = %d, want in (0, 60]", recs[0].SearchDone)
	}
	if snap := s.Metrics(); snap.MCMCProposals <= 0 {
		t.Errorf("MCMCProposals = %d, want > 0", snap.MCMCProposals)
	}
}

// promLine matches a valid exposition sample line (metric, optional
// labels, value). Comment lines are checked separately.
var promLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? -?[0-9+.eE-]+$`)

func TestPromMetricsEndpoint(t *testing.T) {
	s := New(Config{Workers: 1, Optimize: func(ctx context.Context, m *topoopt.Model, o topoopt.Options) (*topoopt.Plan, error) {
		return stubPlan(t), nil
	}})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for i := 0; i < 3; i++ {
		resp := tracePlan(t, ts, testRequest(1)) // 1 miss + 2 hits
		resp.Body.Close()
	}
	// A handler publishes its trace after the response is written. A
	// trace in the ring has already been folded into the stage windows.
	for deadline := time.Now().Add(5 * time.Second); len(s.tel.Requests()) < 3; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("plan traces were not published")
		}
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != telemetry.ContentType {
		t.Errorf("Content-Type = %q, want %q", ct, telemetry.ContentType)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	body := buf.String()

	for _, want := range []string{
		`topoopt_requests_total{endpoint="plan"} 3`,
		"topoopt_cache_hits_total 2",
		"topoopt_cache_misses_total 1",
		"topoopt_shed_total 0",
		"topoopt_queue_full_total 0",
		"topoopt_store_errors_total 0",
		"topoopt_request_latency_seconds_count 3",
		`topoopt_stage_latency_seconds{stage="search",quantile="0.5"}`,
		"# TYPE topoopt_stage_latency_seconds summary",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	for _, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			continue
		}
		if !promLine.MatchString(line) {
			t.Errorf("invalid exposition line %q", line)
		}
	}
}

func TestWriteMetricsTextDeterministic(t *testing.T) {
	snap := MetricsSnapshot{
		Requests:           map[string]int64{"plan": 5, "compare": 2, "cost": 1},
		CacheHits:          3,
		CacheMisses:        2,
		CacheEntries:       2,
		Coalesced:          1,
		Optimizations:      2,
		QueueDepth:         1,
		QueueCapacity:      64,
		Draining:           true,
		MeanServiceSeconds: 0.125,
		MCMCProposals:      400,
		Latency: telemetry.StageSummary{Count: 5, SumSeconds: 1.5, MeanSeconds: 0.3,
			P50Seconds: 0.2, P90Seconds: 0.5, P99Seconds: 0.6, MaxSeconds: 0.6},
		Stages: map[string]telemetry.StageSummary{
			"search": {Count: 2, SumSeconds: 0.9, P50Seconds: 0.45},
			"decode": {Count: 5, SumSeconds: 0.001, P50Seconds: 0.0002},
		},
	}
	var a, b bytes.Buffer
	if err := WriteMetricsText(&a, snap); err != nil {
		t.Fatalf("WriteMetricsText: %v", err)
	}
	if err := WriteMetricsText(&b, snap); err != nil {
		t.Fatalf("WriteMetricsText: %v", err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("two renders of the same snapshot differ")
	}
	// Stage labels render in enum order regardless of map iteration:
	// decode strictly before search.
	out := a.String()
	if strings.Index(out, `stage="decode"`) > strings.Index(out, `stage="search"`) {
		t.Error("stage families not in enum order")
	}
	if !strings.Contains(out, "topoopt_draining 1") {
		t.Error("draining gauge missing")
	}
}

// goldenSnapshot sets every counter, gauge, forwarding map and summary
// of a MetricsSnapshot to a distinct value. The latency fields are
// assigned one by one so the fixture does not name the summary's type.
func goldenSnapshot() MetricsSnapshot {
	snap := MetricsSnapshot{
		Requests:           map[string]int64{"plan": 7, "compare": 2, "cluster": 1},
		CacheHits:          5,
		CacheMisses:        2,
		CacheEntries:       3,
		Coalesced:          1,
		Optimizations:      2,
		InFlight:           1,
		QueueDepth:         4,
		QueueCapacity:      64,
		QueueFull:          6,
		Shed:               8,
		StoreErrors:        9,
		JobsTracked:        10,
		WarmedEntries:      11,
		Draining:           true,
		MeanServiceSeconds: 0.125,
		MCMCProposals:      400,
		WarmStarts:         12,
		WarmStartImproved:  13,
		SimIndexEntries:    14,
		Stages: map[string]telemetry.StageSummary{
			"search": {Count: 2, SumSeconds: 0.9, P50Seconds: 0.45, P90Seconds: 0.5, P99Seconds: 0.5, MaxSeconds: 0.5},
			"decode": {Count: 5, SumSeconds: 0.001, P50Seconds: 0.0002, P90Seconds: 0.0003, P99Seconds: 0.0004, MaxSeconds: 0.0004},
		},
		Forwarded:        map[string]int64{"http://b:2": 3, "http://a:1": 15},
		ForwardFallbacks: map[string]int64{"http://b:2": 1, "http://a:1": 0},
		ForwardedServed:  16,
	}
	snap.Latency.Count = 7
	snap.Latency.SumSeconds = 1.75
	snap.Latency.MeanSeconds = 0.25
	snap.Latency.P50Seconds = 0.2
	snap.Latency.P90Seconds = 0.5
	snap.Latency.P99Seconds = 0.625
	snap.Latency.MaxSeconds = 0.75
	return snap
}

// TestMetricsExpositionGolden pins the exact /metrics bytes and the
// exact /v1/metrics "latency" object for one fully populated snapshot.
func TestMetricsExpositionGolden(t *testing.T) {
	snap := goldenSnapshot()
	var text bytes.Buffer
	if err := WriteMetricsText(&text, snap); err != nil {
		t.Fatalf("WriteMetricsText: %v", err)
	}
	if got := text.String(); got != goldenMetricsText {
		t.Errorf("/metrics render changed:\n%s", got)
	}

	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, snap)
	var body map[string]json.RawMessage
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if got := string(body["latency"]); got != goldenLatencyJSON {
		t.Errorf("/v1/metrics latency object changed:\n%s", got)
	}
}

const goldenLatencyJSON = `{"count":7,"sum_seconds":1.75,"mean_seconds":0.25,"p50_seconds":0.2,"p90_seconds":0.5,"p99_seconds":0.625,"max_seconds":0.75}`

const goldenMetricsText = `# HELP topoopt_requests_total HTTP requests received, by endpoint.
# TYPE topoopt_requests_total counter
topoopt_requests_total{endpoint="cluster"} 1
topoopt_requests_total{endpoint="compare"} 2
topoopt_requests_total{endpoint="plan"} 7
# HELP topoopt_cache_hits_total Plan-cache hits.
# TYPE topoopt_cache_hits_total counter
topoopt_cache_hits_total 5
# HELP topoopt_cache_misses_total Plan-cache misses.
# TYPE topoopt_cache_misses_total counter
topoopt_cache_misses_total 2
# HELP topoopt_coalesced_total Requests coalesced onto an already in-flight computation.
# TYPE topoopt_coalesced_total counter
topoopt_coalesced_total 1
# HELP topoopt_optimizations_total Optimizations completed.
# TYPE topoopt_optimizations_total counter
topoopt_optimizations_total 2
# HELP topoopt_queue_full_total Requests rejected because the work queue was full.
# TYPE topoopt_queue_full_total counter
topoopt_queue_full_total 6
# HELP topoopt_shed_total Requests shed by the admission controller.
# TYPE topoopt_shed_total counter
topoopt_shed_total 8
# HELP topoopt_store_errors_total Durable-store append or replay failures.
# TYPE topoopt_store_errors_total counter
topoopt_store_errors_total 9
# HELP topoopt_mcmc_proposals_total MCMC proposals consumed across all searches.
# TYPE topoopt_mcmc_proposals_total counter
topoopt_mcmc_proposals_total 400
# HELP topoopt_warm_start_total Searches seeded from the plan-similarity index.
# TYPE topoopt_warm_start_total counter
topoopt_warm_start_total 12
# HELP topoopt_warm_start_improved_total Warm-started searches whose seed strictly beat the canonical start states.
# TYPE topoopt_warm_start_improved_total counter
topoopt_warm_start_improved_total 13
# HELP topoopt_cache_entries Plan-cache entries resident.
# TYPE topoopt_cache_entries gauge
topoopt_cache_entries 3
# HELP topoopt_in_flight Computations currently in flight.
# TYPE topoopt_in_flight gauge
topoopt_in_flight 1
# HELP topoopt_queue_depth Tasks queued but not yet started.
# TYPE topoopt_queue_depth gauge
topoopt_queue_depth 4
# HELP topoopt_queue_capacity Work-queue capacity.
# TYPE topoopt_queue_capacity gauge
topoopt_queue_capacity 64
# HELP topoopt_jobs_tracked Async jobs tracked.
# TYPE topoopt_jobs_tracked gauge
topoopt_jobs_tracked 10
# HELP topoopt_warmed_entries Cache entries replayed from the durable store on boot.
# TYPE topoopt_warmed_entries gauge
topoopt_warmed_entries 11
# HELP topoopt_sim_index_entries Plans indexed for similarity warm starts.
# TYPE topoopt_sim_index_entries gauge
topoopt_sim_index_entries 14
# HELP topoopt_draining 1 while the service is draining, 0 otherwise.
# TYPE topoopt_draining gauge
topoopt_draining 1
# HELP topoopt_mean_service_seconds Mean wall time of recent completed searches (the admission controller's estimate).
# TYPE topoopt_mean_service_seconds gauge
topoopt_mean_service_seconds 0.125
# HELP topoopt_forwarded_total Requests proxied to their owning peer, by peer.
# TYPE topoopt_forwarded_total counter
topoopt_forwarded_total{peer="http://a:1"} 15
topoopt_forwarded_total{peer="http://b:2"} 3
# HELP topoopt_forward_fallback_total Proxy attempts that fell back to local compute, by peer.
# TYPE topoopt_forward_fallback_total counter
topoopt_forward_fallback_total{peer="http://a:1"} 0
topoopt_forward_fallback_total{peer="http://b:2"} 1
# HELP topoopt_forwarded_served_total Requests served here that arrived via a peer's forward.
# TYPE topoopt_forwarded_served_total counter
topoopt_forwarded_served_total 16
# HELP topoopt_request_latency_seconds End-to-end plan latency: all-time count/sum, quantiles over the recent window.
# TYPE topoopt_request_latency_seconds summary
topoopt_request_latency_seconds{quantile="0.5"} 0.2
topoopt_request_latency_seconds{quantile="0.9"} 0.5
topoopt_request_latency_seconds{quantile="0.99"} 0.625
topoopt_request_latency_seconds_sum 1.75
topoopt_request_latency_seconds_count 7
# HELP topoopt_stage_latency_seconds Per-stage request latency: all-time count/sum, quantiles over the recent window.
# TYPE topoopt_stage_latency_seconds summary
topoopt_stage_latency_seconds{stage="decode",quantile="0.5"} 0.0002
topoopt_stage_latency_seconds{stage="decode",quantile="0.9"} 0.0003
topoopt_stage_latency_seconds{stage="decode",quantile="0.99"} 0.0004
topoopt_stage_latency_seconds_sum{stage="decode"} 0.001
topoopt_stage_latency_seconds_count{stage="decode"} 5
topoopt_stage_latency_seconds{stage="search",quantile="0.5"} 0.45
topoopt_stage_latency_seconds{stage="search",quantile="0.9"} 0.5
topoopt_stage_latency_seconds{stage="search",quantile="0.99"} 0.5
topoopt_stage_latency_seconds_sum{stage="search"} 0.9
topoopt_stage_latency_seconds_count{stage="search"} 2
`
