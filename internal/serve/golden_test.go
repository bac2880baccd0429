package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"topoopt"
	"topoopt/internal/shard"
	"topoopt/internal/wal"
)

var updateGolden = flag.Bool("update", false, "rewrite the testdata/golden files from the current output")

// checkGolden compares got with testdata/golden/name, or rewrites the
// file under -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", "golden", name)
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s: bytes changed\ngot:  %s\nwant: %s", name, got, want)
	}
}

// postOK posts v to url and returns the 200 response body, failing the
// test on any other status.
func postOK(t *testing.T, url string, v any) []byte {
	t.Helper()
	resp, raw := postJSON(t, url, v)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST %s: status %d: %s", url, resp.StatusCode, raw)
	}
	return raw
}

// stubOptimize serves the fixed stub plan for every request.
func stubOptimize(plan *topoopt.Plan) OptimizeFunc {
	return func(ctx context.Context, m *topoopt.Model, o topoopt.Options) (*topoopt.Plan, error) {
		return plan, nil
	}
}

// TestCachedResponseBytesGolden pins the exact response bytes of one
// fixed plan request on a miss, a hit, a forwarded hit and a
// restart-warm hit; of one compare and one sweep request on a hit and a
// restart-warm hit; and the plan's WAL record payload. However the
// service produces them, these are the bytes clients and stores see.
func TestCachedResponseBytesGolden(t *testing.T) {
	plan := stubPlan(t)
	req := testRequest(1)
	creq := compareTestRequest()
	sreq := SweepRequest{Spec: tinyFleetSpec(5), Replicas: 4}

	dir := t.TempDir()
	store, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	s1 := New(Config{Workers: 2, Store: store, Optimize: stubOptimize(plan)})
	ts1 := httptest.NewServer(s1.Handler())
	checkGolden(t, "plan_miss.json", postOK(t, ts1.URL+"/v1/plan", req))
	checkGolden(t, "plan_hit.json", postOK(t, ts1.URL+"/v1/plan", req))
	waitStoreLen(t, store, 1)
	var payload []byte
	for _, r := range store.wal.Records() {
		if r.Op == wal.OpPut && r.Kind == kindPlan && r.Fp == req.Fingerprint() {
			payload = r.Payload
		}
	}
	checkGolden(t, "plan_wal_payload.json", payload)
	postOK(t, ts1.URL+"/v1/compare", creq)
	checkGolden(t, "compare_hit.json", postOK(t, ts1.URL+"/v1/compare", creq))
	postOK(t, ts1.URL+"/v1/sweep", sreq)
	checkGolden(t, "sweep_hit.json", postOK(t, ts1.URL+"/v1/sweep", sreq))
	ts1.Close()
	s1.Close()

	// Restart-warm: every result comes back from the store.
	store2, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	s2 := New(Config{Workers: 2, Store: store2,
		Optimize: func(ctx context.Context, m *topoopt.Model, o topoopt.Options) (*topoopt.Plan, error) {
			return nil, errors.New("re-search after restart-warm boot")
		}})
	defer s2.Close()
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	checkGolden(t, "plan_hit.json", postOK(t, ts2.URL+"/v1/plan", req))
	checkGolden(t, "compare_hit.json", postOK(t, ts2.URL+"/v1/compare", creq))
	checkGolden(t, "sweep_hit.json", postOK(t, ts2.URL+"/v1/sweep", sreq))
	if m := s2.Metrics(); m.CacheMisses != 0 {
		t.Errorf("restart-warm service missed %d times, want 0", m.CacheMisses)
	}

	// Forwarded hit: the request enters the member that does not own it,
	// so both posts hop to the owner, and the second is the owner's hit.
	nodes := startTestCluster(t, 2, func(i int, urls []string) Config {
		return Config{Workers: 2, Optimize: stubOptimize(plan)}
	})
	ring, err := shard.New([]string{nodes[0].url, nodes[1].url}, 0)
	if err != nil {
		t.Fatal(err)
	}
	edge := nodes[0]
	if ring.Owner(req.Fingerprint()) == edge.url {
		edge = nodes[1]
	}
	postOK(t, edge.url+"/v1/plan", req)
	resp, raw, _ := postPlan(t, edge.url, req, nil)
	if resp.StatusCode != http.StatusOK || resp.Header.Get(OwnerHeader) == "" {
		t.Fatalf("forwarded hit: status %d, owner header %q", resp.StatusCode, resp.Header.Get(OwnerHeader))
	}
	checkGolden(t, "plan_hit.json", raw)
}

// TestPlanEncodeMatchesMarshal pins the two encodes Service.finish
// skips: a plan's body is what json.Marshal returns for it, and the
// spliced WAL payload is what json.Marshal returns for its storedPlan
// wrapper, byte for byte.
func TestPlanEncodeMatchesMarshal(t *testing.T) {
	cases := []struct {
		plan *topoopt.Plan
		req  PlanRequest
	}{
		{stubPlan(t), testRequest(1)},
		{largePlan(t), largeRequest()},
	}
	for _, c := range cases {
		_, body, err := encodeResult(c.plan)
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(c.plan)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(body, want) {
			t.Fatalf("encodeResult differs from json.Marshal\ngot:  %s\nwant: %s", body, want)
		}
		got, err := wrapPlan(&c.req, body)
		if err != nil {
			t.Fatal(err)
		}
		if want, err = json.Marshal(storedPlan{Request: &c.req, Plan: body}); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("wrapPlan differs from json.Marshal\ngot:  %s\nwant: %s", got, want)
		}
	}
}

// TestLegacyBarePlanRecordWarmsByteIdentical pins the read side of the
// pre-index WAL format: a put record whose payload is the bare Plan JSON
// (no request wrapper) still replays into a cache hit byte-identical to
// a fresh daemon's hit, with zero re-searches. It just cannot re-join the
// similarity index, which needs the request.
func TestLegacyBarePlanRecordWarmsByteIdentical(t *testing.T) {
	plan := stubPlan(t)
	req := testRequest(1)

	fresh := New(Config{Workers: 2, Optimize: stubOptimize(plan)})
	defer fresh.Close()
	tsFresh := httptest.NewServer(fresh.Handler())
	defer tsFresh.Close()
	postOK(t, tsFresh.URL+"/v1/plan", req)
	want := postOK(t, tsFresh.URL+"/v1/plan", req)

	dir := t.TempDir()
	w, err := wal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	bare, err := plan.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(wal.Record{Op: wal.OpPut, Kind: kindPlan, Fp: req.Fingerprint(), Payload: bare}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	store, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{Workers: 2, Store: store,
		Optimize: func(ctx context.Context, m *topoopt.Model, o topoopt.Options) (*topoopt.Plan, error) {
			return nil, errors.New("re-search of a legacy record")
		}})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	if got := postOK(t, ts.URL+"/v1/plan", req); !bytes.Equal(got, want) {
		t.Errorf("legacy-warm hit differs from a fresh hit\ngot:  %s\nwant: %s", got, want)
	}
	m := s.Metrics()
	if m.WarmedEntries != 1 || m.CacheMisses != 0 || m.SimIndexEntries != 0 {
		t.Errorf("warmed=%d misses=%d sim_index=%d, want 1, 0, 0",
			m.WarmedEntries, m.CacheMisses, m.SimIndexEntries)
	}
}
