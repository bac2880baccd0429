package serve

import (
	"encoding/json"
	"fmt"
	"math"
	"sync"

	"topoopt"
)

// The plan-similarity index is the incremental-replanning half of the
// plan cache: where the LRU answers "have I computed exactly this
// request", the index answers "what is the nearest request I have
// computed". A near-miss request — same workload and shard count,
// perturbed batch / degree / bandwidth / seed — warm-starts its search
// from the neighbor's converged strategy (Options.WarmStart) with the
// patience early exit (Options.Patience), converging in a fraction of
// the cold budget while never returning a worse plan: the MCMC engine
// adopts a warm candidate only when it strictly beats the canonical
// start under the request's own evaluator.
//
// Index entries ride the cache's lifecycle: added when a plan completes
// (and on boot, when the WAL is replayed), removed when the LRU evicts
// the underlying plan. Both structures are guarded by the Service mutex.

// warmPatience is the patience (improvement-free epoch barriers before a
// search round stops) injected alongside a warm start. 3 is the value
// the flexnet equal-budget quality gate and BenchmarkWarmReplan pin:
// warm matches-or-beats cold on every pinned config at ≥2x fewer
// evaluations.
const warmPatience = 3

// simEntry is one indexed plan: its cache fingerprint plus the canonical
// request whose options the distance metric compares (and whose full form
// the WAL persists alongside the plan, so the index survives restarts).
type simEntry struct {
	fp  string
	req PlanRequest
}

// simIndex buckets cached plans by their hard-match features and ranks
// within a bucket by a weighted option distance. Neighbor selection is
// deterministic in the index *contents*: ties break toward the
// lexicographically smallest fingerprint, so insertion order can never
// leak into which neighbor a request warms from.
type simIndex struct {
	buckets map[string][]simEntry
	byFp    map[string]string // fp → bucket key, for O(1) removal
}

func newSimIndex() *simIndex {
	return &simIndex{buckets: make(map[string][]simEntry), byFp: make(map[string]string)}
}

// bucketKey is the hard-match part of the feature key: the canonical
// model (a warm strategy must have the same layer schedule) and the
// server count (the MCMC engine only adopts candidates with w.N == n).
// Everything else — degree, bandwidth, batch, seed, search budget — is
// soft and handled by distance.
func bucketKey(req PlanRequest) string {
	mb, err := json.Marshal(req.Model)
	if err != nil {
		// ModelSpec is plain data; Marshal cannot fail on it.
		panic(fmt.Sprintf("serve: simindex model marshal: %v", err))
	}
	return fmt.Sprintf("%s|n=%d", mb, req.Options.Servers)
}

// add indexes fp under req's features. req must be canonical. Re-adding
// an indexed fingerprint is a no-op (the features are derived from the
// fingerprint's preimage, so they cannot have changed).
func (x *simIndex) add(fp string, req PlanRequest) {
	if _, ok := x.byFp[fp]; ok {
		return
	}
	key := bucketKey(req)
	x.buckets[key] = append(x.buckets[key], simEntry{fp: fp, req: req})
	x.byFp[fp] = key
}

// remove drops fp from the index, if present (cache eviction calls this
// for every evicted key; non-plan fingerprints are simply absent).
func (x *simIndex) remove(fp string) {
	key, ok := x.byFp[fp]
	if !ok {
		return
	}
	delete(x.byFp, fp)
	bucket := x.buckets[key]
	for i := range bucket {
		if bucket[i].fp == fp {
			x.buckets[key] = append(bucket[:i], bucket[i+1:]...)
			break
		}
	}
	if len(x.buckets[key]) == 0 {
		delete(x.buckets, key)
	}
}

func (x *simIndex) len() int { return len(x.byFp) }

// nearest returns the fingerprint of the closest indexed neighbor of
// req, excluding selfFp. Deterministic in the index contents: minimum
// distance, ties to the lexicographically smallest fingerprint.
func (x *simIndex) nearest(req PlanRequest, selfFp string) (string, bool) {
	bucket := x.buckets[bucketKey(req)]
	bestFp, bestD := "", math.Inf(1)
	for _, e := range bucket {
		if e.fp == selfFp {
			continue
		}
		d := simDistance(req.Options, e.req.Options)
		if d < bestD || (d == bestD && e.fp < bestFp) {
			bestFp, bestD = e.fp, d
		}
	}
	return bestFp, bestFp != ""
}

// simDistance scores how far apart two same-bucket requests are. The
// weights order neighbors by how much the perturbation moves the search
// landscape: degree and bandwidth reshape the fabric, batch rescales
// every transfer, while seed / chain count / budget only move the search
// trajectory over the same landscape.
func simDistance(a, b topoopt.Options) float64 {
	d := 4 * relDiff(float64(a.Degree), float64(b.Degree))
	d += 2 * relDiff(a.LinkBandwidth, b.LinkBandwidth)
	d += 2 * relDiff(float64(a.BatchPerGPU), float64(b.BatchPerGPU))
	d += relDiff(float64(a.MCMCIters), float64(b.MCMCIters))
	d += relDiff(float64(a.Rounds), float64(b.Rounds))
	if a.Seed != b.Seed {
		d += 0.5
	}
	if a.Parallelism != b.Parallelism {
		d += 0.5
	}
	if a.PrimeOnly != b.PrimeOnly {
		d++
	}
	if a.GPU != b.GPU {
		d++
	}
	return d
}

// relDiff is |x−y| normalized by the larger magnitude: 0 for equal, → 1
// as the values diverge, scale-free so bandwidths in bits/s and degrees
// in single digits weigh comparably.
func relDiff(x, y float64) float64 {
	if x == y {
		return 0
	}
	m := math.Max(math.Abs(x), math.Abs(y))
	if m == 0 {
		return 0
	}
	return math.Abs(x-y) / m
}

// PartialPlan is the anytime-search snapshot of a running plan job: the
// best strategy the search has found so far and its cost estimate,
// served in GET /v1/jobs/{id} as the job's "partial" field while the
// job is running. Snapshots improve monotonically — EstimatedIterationS
// never increases across polls of one job — because the publisher only
// accepts strictly better costs (the optimizer's per-round streams can
// jump when a round switches candidate fabrics; the sink keeps the
// global best).
type PartialPlan struct {
	// Strategy is the best parallelization strategy found so far.
	Strategy topoopt.Strategy `json:"strategy"`
	// EstimatedIterationS is the search's fast estimate of the iteration
	// time under Strategy — comparable across polls, not identical to the
	// final plan's flow-level simulated time.
	EstimatedIterationS float64 `json:"estimated_iteration_s"`
	// Updates counts accepted (strictly improving) publications, so a
	// poller can cheaply detect progress between polls.
	Updates int `json:"updates"`
}

// partialState is the mutex-guarded slot one running optimization
// publishes its anytime stream into. The optimizer's OnBest callback
// fires between search epochs (never on the request hot path), and
// GetJob copies the snapshot out under the same small lock.
type partialState struct {
	mu   sync.Mutex
	has  bool
	snap PartialPlan
}

// publish folds one OnBest callback into the slot, enforcing
// monotonicity: only a strictly better cost replaces the snapshot. The
// strategy is already a clone (the MCMC engine clones before streaming),
// so storing it does not alias search state.
func (p *partialState) publish(st topoopt.Strategy, cost float64) {
	p.mu.Lock()
	if !p.has || cost < p.snap.EstimatedIterationS {
		p.snap.Strategy = st
		p.snap.EstimatedIterationS = cost
		p.snap.Updates++
		p.has = true
	}
	p.mu.Unlock()
}

// snapshot returns a copy of the current partial, if any.
func (p *partialState) snapshot() (PartialPlan, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.snap, p.has
}
