package telemetry

import (
	"sort"
	"sync"

	"topoopt/internal/stats"
)

// Window is a bounded ring of recent observations plus all-time
// count/sum totals, so the mean and quantiles track recent behavior
// while _count and _sum stay monotonic the way Prometheus summaries
// require. A running sum over the ring keeps Mean O(1). Every windowed
// signal in topooptd is a Window; all methods are safe for concurrent
// use.
type Window struct {
	mu     sync.Mutex
	size   int
	buf    []float64
	pos    int
	count  int64
	sum    float64 // all-time
	winSum float64 // over buf
}

// NewWindow returns a Window over the last size observations.
func NewWindow(size int) *Window {
	return &Window{size: size}
}

// Observe records one value, evicting the oldest once the ring is full.
func (w *Window) Observe(v float64) {
	w.mu.Lock()
	if len(w.buf) < w.size {
		w.buf = append(w.buf, v)
	} else {
		w.winSum -= w.buf[w.pos]
		w.buf[w.pos] = v
		if w.pos++; w.pos == w.size {
			w.pos = 0
		}
	}
	w.winSum += v
	w.count++
	w.sum += v
	w.mu.Unlock()
}

// Mean returns the mean over the ring, or 0 before the first
// observation.
func (w *Window) Mean() float64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	if len(w.buf) == 0 {
		return 0
	}
	return w.winSum / float64(len(w.buf))
}

// StageSummary is the quantile view of one window: Count and
// SumSeconds are all-time totals; the mean and quantiles are over the
// recent window.
type StageSummary struct {
	Count       int64   `json:"count"`
	SumSeconds  float64 `json:"sum_seconds"`
	MeanSeconds float64 `json:"mean_seconds"`
	P50Seconds  float64 `json:"p50_seconds"`
	P90Seconds  float64 `json:"p90_seconds"`
	P99Seconds  float64 `json:"p99_seconds"`
	MaxSeconds  float64 `json:"max_seconds"`
}

// Summary copies the ring under the lock and computes the mean and
// quantiles outside it. The mean is summed afresh from the copy, free of
// the rounding drift Mean's running sum can accumulate.
func (w *Window) Summary() StageSummary {
	w.mu.Lock()
	s := StageSummary{Count: w.count, SumSeconds: w.sum}
	cp := append([]float64(nil), w.buf...)
	w.mu.Unlock()
	if len(cp) > 0 {
		s.MeanSeconds = stats.Mean(cp)
		sort.Float64s(cp)
		s.P50Seconds = stats.PercentileSorted(cp, 50)
		s.P90Seconds = stats.PercentileSorted(cp, 90)
		s.P99Seconds = stats.PercentileSorted(cp, 99)
		s.MaxSeconds = cp[len(cp)-1]
	}
	return s
}

// StageSummaries returns the quantile summary of every stage that has
// at least one observation, keyed by stage label.
func (r *Registry) StageSummaries() map[string]StageSummary {
	if r == nil {
		return nil
	}
	out := make(map[string]StageSummary)
	for s, w := range r.stages {
		if sum := w.Summary(); sum.Count > 0 {
			out[stageNames[s]] = sum
		}
	}
	return out
}

// StageNames returns the summary's keys in stable enum order — the
// iteration order every deterministic renderer (Prometheus exposition)
// must use.
func StageNames(m map[string]StageSummary) []string {
	names := make([]string, 0, len(m))
	for _, name := range stageNames {
		if _, ok := m[name]; ok {
			names = append(names, name)
		}
	}
	return names
}
