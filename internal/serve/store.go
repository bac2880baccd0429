package serve

import (
	"encoding/json"
	"fmt"
	"time"

	"topoopt"
	"topoopt/internal/telemetry"
	"topoopt/internal/wal"
)

// WAL record kinds: the four cacheable result shapes, plus the same
// names reused to tag journaled async jobs (a "plan" job record carries
// a PlanRequest, a "fleet" job record a FleetSpec, a "sweep" job record
// a sweepJournal). Kinds namespace fingerprints inside the store,
// mirroring the kind tags already mixed into compare, fleet and sweep
// fingerprints, and double as the Job envelope's Kind tag.
const (
	kindPlan    = "plan"
	kindCompare = "compare"
	kindFleet   = "fleet"
	kindSweep   = "sweep"
)

// Store is the durable plan store: a typed adapter over internal/wal
// that the Service uses to persist every completed result, journal
// queued async jobs, warm its LRU on boot, and compact on clean
// shutdown. Results are stored as their canonical JSON, the same bytes
// the cache serves, so a restart-warm cache hit writes the stored bytes
// verbatim and is byte-identical to the pre-crash response. The decoded
// value rides along for in-process readers (Service.Plan, jobs, the
// similarity index); results are byte-stable under Marshal → Unmarshal
// → Marshal, so those readers see the same result too.
type Store struct {
	wal *wal.Store
}

// OpenStore opens (creating if needed) the durable plan store in dir,
// replaying the snapshot and write-ahead log and truncating any torn
// tail left by a crash. Options (e.g. wal.WithSync for power-loss
// durability) pass through to the underlying log.
func OpenStore(dir string, opts ...wal.Option) (*Store, error) {
	w, err := wal.Open(dir, opts...)
	if err != nil {
		return nil, err
	}
	return &Store{wal: w}, nil
}

// Len reports the number of persisted results.
func (st *Store) Len() int { return st.wal.Len() }

// encodeResult maps a completed result to its WAL kind and canonical
// JSON. It runs once per completed flight: the bytes become the cache
// entry's body (written verbatim on every HTTP hit) and the WAL payload
// (inside the storedPlan wrapper for plans).
func encodeResult(res any) (kind string, body []byte, err error) {
	switch v := res.(type) {
	case *topoopt.Plan:
		// MarshalJSON's output is already compact and HTML-escaped, so it
		// is exactly what json.Marshal would return after re-compacting it.
		body, err = v.MarshalJSON()
		return kindPlan, body, err
	case []topoopt.CompareResult:
		kind = kindCompare
	case *topoopt.FleetResult:
		kind = kindFleet
	case *topoopt.FleetSweepResult:
		kind = kindSweep
	default:
		return "", nil, fmt.Errorf("serve: unstorable result type %T", v)
	}
	body, err = json.Marshal(res)
	return kind, body, err
}

// storedPlan is the durable form of a plan record: the plan's canonical
// JSON plus the canonical request that produced it, so a restart
// rebuilds the plan-similarity index (not just the exact-fingerprint
// LRU) from the WAL and near-miss requests warm-start across daemon
// restarts. Every plan the service computes is written in this form.
// Stores written before the index existed hold bare Plan JSON instead;
// decodeStored still reads those.
type storedPlan struct {
	Request *PlanRequest    `json:"request,omitempty"`
	Plan    json.RawMessage `json:"plan"`
}

// decodeStored reverses persist for OpPut records: the cache entry —
// the decoded value plus the stored canonical bytes, served verbatim
// without re-encoding — and, for wrapped plan records, the canonical
// request to re-index.
func decodeStored(kind string, payload []byte) (result, *PlanRequest, error) {
	body := payload
	var req *PlanRequest
	if kind == kindPlan {
		var sp storedPlan
		// A wrapped record has a "plan" member; legacy records are the bare
		// Plan JSON (whose fields don't collide with the wrapper, so
		// sp.Plan stays nil) and are the body as they stand.
		if err := json.Unmarshal(payload, &sp); err == nil && sp.Plan != nil {
			body, req = sp.Plan, sp.Request
		}
	}
	v, err := decodeResult(kind, body)
	if err != nil {
		return result{}, nil, err
	}
	return result{val: v, body: body}, req, nil
}

// decodeResult reverses encodeResult, reconstructing exactly the types
// the in-memory cache holds so a warmed entry is indistinguishable from
// a freshly computed one.
func decodeResult(kind string, payload []byte) (any, error) {
	switch kind {
	case kindPlan:
		var p topoopt.Plan
		if err := json.Unmarshal(payload, &p); err != nil {
			return nil, err
		}
		return &p, nil
	case kindCompare:
		var rs []topoopt.CompareResult
		if err := json.Unmarshal(payload, &rs); err != nil {
			return nil, err
		}
		return rs, nil
	case kindFleet:
		var fr topoopt.FleetResult
		if err := json.Unmarshal(payload, &fr); err != nil {
			return nil, err
		}
		return &fr, nil
	case kindSweep:
		var sr topoopt.FleetSweepResult
		if err := json.Unmarshal(payload, &sr); err != nil {
			return nil, err
		}
		return &sr, nil
	default:
		return nil, fmt.Errorf("serve: unknown stored kind %q", kind)
	}
}

// wrapPlan returns the storedPlan record for a plan's canonical body,
// byte for byte what json.Marshal(storedPlan{Request: creq, Plan: body})
// returns, built by splicing rather than by re-compacting the body.
func wrapPlan(creq *PlanRequest, body []byte) ([]byte, error) {
	req, err := json.Marshal(creq)
	if err != nil {
		return nil, err
	}
	b := make([]byte, 0, len(`{"request":,"plan":}`)+len(req)+len(body))
	b = append(b, `{"request":`...)
	b = append(b, req...)
	b = append(b, `,"plan":`...)
	b = append(b, body...)
	return append(b, '}'), nil
}

// persist appends a completed result's canonical bytes to the WAL; a
// plan (creq non-nil) is wrapped with its canonical request. Its wall
// time feeds the persist stage's quantile window. Persistence is
// best-effort relative to serving — a failed append is counted in
// metrics but never fails the request that computed the result.
func (s *Service) persist(fp, kind string, body []byte, creq *PlanRequest) {
	if s.store == nil {
		return
	}
	t0 := time.Now()
	payload := body
	var err error
	if creq != nil {
		payload, err = wrapPlan(creq, body)
	}
	if err == nil {
		err = s.store.wal.Append(wal.Record{Op: wal.OpPut, Kind: kind, Fp: fp, Payload: payload})
	}
	if err != nil {
		s.met.storeErrs.Add(1)
	}
	s.tel.ObserveStage(telemetry.StagePersist, time.Since(t0))
}

// journalJob records a queued async job so a restart can re-enqueue it;
// journalJobDone clears the journal entry once the job reaches a
// terminal state (done, failed or cancelled).
func (s *Service) journalJob(kind, fp string, payload []byte) {
	if s.store == nil {
		return
	}
	if err := s.store.wal.Append(wal.Record{Op: wal.OpJob, Kind: kind, Fp: fp, Payload: payload}); err != nil {
		s.met.storeErrs.Add(1)
	}
}

func (s *Service) journalJobDone(kind, fp string) {
	if s.store == nil {
		return
	}
	if err := s.store.wal.Append(wal.Record{Op: wal.OpJobDone, Kind: kind, Fp: fp}); err != nil {
		s.met.storeErrs.Add(1)
	}
}

// clearStaleJournal clears the journal entry, if any, of a job that
// resolved straight from the cache. Ordinary submissions hitting a warm
// cache were never journaled, so this appends nothing for them.
func (s *Service) clearStaleJournal(kind, fp string) {
	if s.store == nil || !s.store.wal.HasJob(kind, fp) {
		return
	}
	s.journalJobDone(kind, fp)
}

// warmFromStore replays the durable store into the service: every
// persisted result lands in the LRU (so a restart serves it as a
// byte-identical cache hit with zero re-search), and every journaled
// but unfinished async job is re-submitted through the normal admission
// path under a fresh job ID. Jobs whose results already landed complete
// instantly from the warmed cache, which also clears their journal
// entries. Runs during New, before the service accepts requests.
func (s *Service) warmFromStore() {
	var jobs []wal.Record
	for _, r := range s.store.wal.Records() {
		switch r.Op {
		case wal.OpPut:
			res, req, err := decodeStored(r.Kind, r.Payload)
			if err != nil {
				s.met.storeErrs.Add(1)
				continue
			}
			s.mu.Lock()
			s.cache.add(r.Fp, res)
			if req != nil {
				// Restart-warm similarity: the replayed plan re-joins the
				// index, so near-miss requests warm-start across restarts.
				s.sim.add(r.Fp, *req)
			}
			s.warmed++
			s.mu.Unlock()
		case wal.OpJob:
			jobs = append(jobs, r)
		}
	}
	// Re-enqueue after warming so a journaled job whose put record
	// survived resolves as an instant cache hit instead of a re-run.
	// Best effort: a job the queue cannot re-admit stays journaled for
	// the next restart.
	for _, r := range jobs {
		switch r.Kind {
		case kindPlan:
			var req PlanRequest
			if json.Unmarshal(r.Payload, &req) == nil {
				s.SubmitJob(req)
			}
		case kindFleet:
			var spec topoopt.FleetSpec
			if json.Unmarshal(r.Payload, &spec) == nil {
				s.SubmitFleet(spec)
			}
		case kindSweep:
			var sj sweepJournal
			if json.Unmarshal(r.Payload, &sj) == nil {
				s.SubmitSweep(sj.Spec, sj.Replicas)
			}
		}
	}
}
