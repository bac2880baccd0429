package serve

import (
	"sync/atomic"

	"topoopt/internal/telemetry"
)

// latencyWindow bounds the latency and service-time windows: large
// enough for stable tails, small enough that a long-lived daemon's
// /metrics and admission estimate reflect recent behavior.
const latencyWindow = 1024

// endpointNames is the fixed set of request counters.
var endpointNames = []string{
	"plan", "compare", "cost", "fleet", "sweep",
	"jobs_submit", "jobs_list", "jobs_get", "jobs_cancel",
	"cluster",
}

// keyed is a fixed-key counter set. The map is built once and never
// mutated afterwards, so add and get are a lock-free map read plus an
// atomic op; keys outside the set are ignored.
type keyed map[string]*atomic.Int64

func newKeyed(keys []string) keyed {
	k := make(keyed, len(keys))
	for _, key := range keys {
		k[key] = new(atomic.Int64)
	}
	return k
}

// add counts one event under key.
func (k keyed) add(key string) {
	if c, ok := k[key]; ok {
		c.Add(1)
	}
}

func (k keyed) get(key string) int64 {
	if c, ok := k[key]; ok {
		return c.Load()
	}
	return 0
}

// metrics aggregates service counters. Every counter is an atomic and
// each telemetry.Window locks itself, so the serving path never takes a
// metrics-wide lock.
type metrics struct {
	hits      atomic.Int64
	misses    atomic.Int64
	coalesced atomic.Int64
	optimized atomic.Int64
	queueFull atomic.Int64
	shed      atomic.Int64
	storeErrs atomic.Int64
	// proposals counts MCMC proposals consumed across all searches, fed
	// by the engine's epoch barriers (Options.Progress). Rate over time
	// is the daemon's search throughput.
	proposals atomic.Int64
	// warmStarts counts searches seeded from the plan-similarity index;
	// warmWins counts the subset whose seed strictly beat the canonical
	// start states (on real fabrics the canonical hybrid is usually
	// already optimal, so the win is the patience time saving and
	// warmWins staying near zero is expected, not a bug).
	warmStarts atomic.Int64
	warmWins   atomic.Int64
	requests   keyed // endpointNames

	// Sharded-cluster forwarding counters, keyed by peer and set by
	// EnableCluster before traffic. forwarded counts requests this daemon
	// proxied to each owner; forwardFail counts proxy attempts that
	// failed over to local compute; fwdServed counts requests served here
	// that arrived via a peer's forward.
	forwarded   keyed
	forwardFail keyed
	fwdServed   atomic.Int64

	// lat is end-to-end plan latency. svc is the wall time of completed
	// searches: the admission controller's shed decision multiplies its
	// O(1) mean by the queue depth to estimate how long a newly queued
	// request would wait (0 while empty: a cold service never sheds).
	lat *telemetry.Window
	svc *telemetry.Window
}

func newMetrics() *metrics {
	return &metrics{
		requests: newKeyed(endpointNames),
		lat:      telemetry.NewWindow(latencyWindow),
		svc:      telemetry.NewWindow(latencyWindow),
	}
}

// MetricsSnapshot is the /v1/metrics response body; WriteMetricsText
// renders the same snapshot as Prometheus text exposition at /metrics.
type MetricsSnapshot struct {
	Requests      map[string]int64       `json:"requests"`
	CacheHits     int64                  `json:"cache_hits"`
	CacheMisses   int64                  `json:"cache_misses"`
	CacheEntries  int                    `json:"cache_entries"`
	Coalesced     int64                  `json:"coalesced"`
	Optimizations int64                  `json:"optimizations"`
	InFlight      int                    `json:"in_flight"`
	QueueDepth    int                    `json:"queue_depth"`
	QueueCapacity int                    `json:"queue_capacity"`
	QueueFull     int64                  `json:"queue_full"`
	Shed          int64                  `json:"shed"`
	StoreErrors   int64                  `json:"store_errors"`
	JobsTracked   int                    `json:"jobs_tracked"`
	WarmedEntries int                    `json:"warmed_entries"`
	Draining      bool                   `json:"draining"`
	Latency       telemetry.StageSummary `json:"latency"`

	// MeanServiceSeconds is the mean wall time of recent completed
	// searches — the admission controller's service-time estimate.
	MeanServiceSeconds float64 `json:"mean_service_seconds"`

	// MCMCProposals counts search proposals consumed across all requests,
	// reported by the engine's epoch barriers.
	MCMCProposals int64 `json:"mcmc_proposals"`

	// WarmStarts counts searches seeded from the plan-similarity index;
	// WarmStartImproved is the subset whose seed strictly beat the
	// canonical start states. SimIndexEntries gauges the index size
	// (always ≤ CacheEntries: index entries die with their cached plan).
	WarmStarts        int64 `json:"warm_starts"`
	WarmStartImproved int64 `json:"warm_start_improved"`
	SimIndexEntries   int   `json:"sim_index_entries"`

	// Stages holds per-stage latency quantiles (decode, admission, cache,
	// queue, search, persist, encode) over recent traced requests.
	Stages map[string]telemetry.StageSummary `json:"stages,omitempty"`

	// Sharded-cluster forwarding counters (present only on a daemon with
	// EnableCluster): requests proxied to each owning peer, proxy
	// attempts that fell back to local compute, and requests served here
	// that arrived via a peer's forward.
	Forwarded        map[string]int64 `json:"forwarded,omitempty"`
	ForwardFallbacks map[string]int64 `json:"forward_fallbacks,omitempty"`
	ForwardedServed  int64            `json:"forwarded_served,omitempty"`
}

// snapshot copies the counters; cache/queue/job gauges and the stage
// summaries are filled in by the Service, which owns those structures.
func (m *metrics) snapshot() MetricsSnapshot {
	s := MetricsSnapshot{
		Requests:          make(map[string]int64, len(m.requests)),
		CacheHits:         m.hits.Load(),
		CacheMisses:       m.misses.Load(),
		Coalesced:         m.coalesced.Load(),
		Optimizations:     m.optimized.Load(),
		QueueFull:         m.queueFull.Load(),
		Shed:              m.shed.Load(),
		StoreErrors:       m.storeErrs.Load(),
		MCMCProposals:     m.proposals.Load(),
		WarmStarts:        m.warmStarts.Load(),
		WarmStartImproved: m.warmWins.Load(),
	}
	for k, c := range m.requests {
		if v := c.Load(); v > 0 {
			s.Requests[k] = v
		}
	}
	if len(m.forwarded) > 0 {
		s.Forwarded = make(map[string]int64, len(m.forwarded))
		s.ForwardFallbacks = make(map[string]int64, len(m.forwardFail))
		for p, c := range m.forwarded {
			s.Forwarded[p] = c.Load()
			s.ForwardFallbacks[p] = m.forwardFail.get(p)
		}
		s.ForwardedServed = m.fwdServed.Load()
	}
	s.MeanServiceSeconds = m.svc.Mean()
	s.Latency = m.lat.Summary()
	return s
}
