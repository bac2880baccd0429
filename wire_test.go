package topoopt

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"testing"
)

func TestPlanJSONRoundTripByteStable(t *testing.T) {
	m := DLRM(Sec6)
	plan, err := Optimize(m, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	b1, err := json.Marshal(plan)
	if err != nil {
		t.Fatal(err)
	}
	var decoded Plan
	if err := json.Unmarshal(b1, &decoded); err != nil {
		t.Fatal(err)
	}
	b2, err := json.Marshal(&decoded)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatalf("marshal → unmarshal → marshal not byte-stable:\n%s\nvs\n%s", b1, b2)
	}
	// The decoded plan must be semantically identical, not just re-encode
	// the same way.
	if !reflect.DeepEqual(plan.Routes, decoded.Routes) {
		t.Error("routes differ after round trip")
	}
	if !reflect.DeepEqual(plan.Strategy, decoded.Strategy) {
		t.Error("strategy differs after round trip")
	}
	if !reflect.DeepEqual(plan.Circuits, decoded.Circuits) {
		t.Error("circuits differ after round trip")
	}
	if !reflect.DeepEqual(plan.Rings, decoded.Rings) {
		t.Error("rings differ after round trip")
	}
	if plan.PredictedIteration != decoded.PredictedIteration {
		t.Error("iteration breakdown differs after round trip")
	}
	if !reflect.DeepEqual(plan.Demand, decoded.Demand) {
		t.Error("demand differs after round trip")
	}
	// The canonical encoding must apply to Plan values too, not just
	// *Plan (a non-addressable value cannot reach a pointer-receiver
	// MarshalJSON).
	byValue, err := json.Marshal(struct{ Plan Plan }{Plan: *plan})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(byValue, []byte(`"routes":[{`)) {
		t.Error("marshaling a Plan value bypassed the canonical encoder")
	}
}

// FuzzPlanWireRoundTrip checks the Plan wire format on arbitrary input:
// decoding never panics, and any input that decodes re-encodes
// byte-stably (Marshal → Unmarshal → Marshal). The planning service
// serves stored plan bytes verbatim after a restart while in-process
// readers use the decoded plan, so the two must agree. The committed
// corpus under testdata/fuzz seeds it with a real dlrm n=32 d=4 plan.
func FuzzPlanWireRoundTrip(f *testing.F) {
	f.Add([]byte(`{"routes":[{"src":1,"dst":0,"path":[1,0]},{"src":0,"dst":1,"path":[0,1]},{"src":0,"dst":1,"path":null}],"circuits":[]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var p Plan
		if json.Unmarshal(data, &p) != nil {
			return
		}
		b1, err := json.Marshal(p)
		if err != nil {
			t.Fatalf("encoding a decoded plan: %v", err)
		}
		var q Plan
		if err := json.Unmarshal(b1, &q); err != nil {
			t.Fatalf("decoding an encoded plan: %v\n%s", err, b1)
		}
		b2, err := json.Marshal(q)
		if err != nil {
			t.Fatalf("re-encoding: %v", err)
		}
		if !bytes.Equal(b1, b2) {
			t.Fatalf("marshal → unmarshal → marshal not byte-stable:\n%s\nvs\n%s", b1, b2)
		}
	})
}

// TestFleetSpecJSONRoundTripByteStable: the fleet wire format obeys the
// same canonical-encoding contract as Plan — Marshal → Unmarshal →
// Marshal is byte-stable, which is what lets the planning service
// fingerprint and cache whole cluster runs.
func TestFleetSpecJSONRoundTripByteStable(t *testing.T) {
	spec := FleetSpec{
		Servers: 32, Degree: 4, LinkBandwidth: 100e9,
		Arch: "SiP-Ring", Policy: "backfill", Provisioning: "lookahead",
		Seed: 7, MCMCIters: 20,
		Trace: FleetTraceSpec{
			Jobs: 8, MeanInterarrivalS: 300, Pattern: "diurnal",
			WorkerDivisor: 16, MaxWorkers: 16,
		},
		Failures: &FleetFailureSpec{RatePerHour: 5, Mode: "replan"},
	}.Canonical()
	b1, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	var back FleetSpec
	if err := json.Unmarshal(b1, &back); err != nil {
		t.Fatal(err)
	}
	b2, err := json.Marshal(back)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Errorf("FleetSpec not byte-stable:\n%s\n%s", b1, b2)
	}
	// The SearchWorkers execution hint must never reach the wire.
	if strings.Contains(string(b1), "SearchWorkers") || strings.Contains(string(b1), "search_workers") {
		t.Error("SearchWorkers leaked into the wire format")
	}
}

// TestRunFleetPublicAPI: the root-package surface (RunFleet, scenarios)
// drives internal/fleet end to end and respects cancellation.
func TestRunFleetPublicAPI(t *testing.T) {
	if len(FleetScenarios()) != 3 {
		t.Fatalf("scenarios = %v", FleetScenarios())
	}
	if _, err := FleetScenario("no-such"); err == nil {
		t.Error("unknown scenario accepted")
	}
	spec := FleetSpec{
		Servers: 8, Degree: 1, LinkBandwidth: 1e9, Arch: "Fat-tree",
		Trace: FleetTraceSpec{Inline: []FleetJobSpec{
			{AtS: 0, Workers: 4, FixedDurationS: 10},
			{AtS: 5, Workers: 8, FixedDurationS: 10},
		}},
	}
	res, err := RunFleet(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Jobs) != 2 || res.Summary.Jobs != 2 {
		t.Fatalf("result = %+v", res.Summary)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunFleet(ctx, spec); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled RunFleet returned %v", err)
	}
}

func TestModelSpecCanonical(t *testing.T) {
	a := ModelSpec{Preset: "BERT"}.Canonical()
	b := ModelSpec{Preset: "bert", Section: "5.3"}.Canonical()
	if a != b {
		t.Errorf("alias specs not canonicalized: %+v vs %+v", a, b)
	}
	if got := (ModelSpec{Preset: "resnet"}).Canonical().Preset; got != "resnet50" {
		t.Errorf("resnet alias → %q, want resnet50", got)
	}
	if got := (ModelSpec{Preset: "vgg", VGGDepth: 16}).Canonical(); got.Preset != "vgg16" || got.VGGDepth != 0 {
		t.Errorf("vgg alias/default depth not normalized: %+v", got)
	}
	// An illegal override must NOT canonicalize away: {bert, vgg_depth:16}
	// is rejected by Resolve and may not alias plain bert.
	if got := (ModelSpec{Preset: "bert", VGGDepth: 16}).Canonical(); got.VGGDepth != 16 {
		t.Errorf("invalid vgg_depth on bert was stripped: %+v", got)
	}
}

func TestOptionsJSONRoundTrip(t *testing.T) {
	o := Options{Servers: 128, Degree: 4, LinkBandwidth: 100e9,
		BatchPerGPU: 64, Rounds: 3, MCMCIters: 200, Seed: 42, PrimeOnly: true}
	b1, err := json.Marshal(o)
	if err != nil {
		t.Fatal(err)
	}
	var back Options
	if err := json.Unmarshal(b1, &back); err != nil {
		t.Fatal(err)
	}
	// reflect.DeepEqual, not ==: Options carries non-wire func fields
	// (Progress) that make the struct incomparable.
	if !reflect.DeepEqual(back, o) {
		t.Fatalf("options round trip: got %+v want %+v", back, o)
	}
	b2, _ := json.Marshal(back)
	if !bytes.Equal(b1, b2) {
		t.Fatalf("options encoding not byte-stable: %s vs %s", b1, b2)
	}
}

func TestModelSpecResolve(t *testing.T) {
	cases := []struct {
		name    string
		spec    ModelSpec
		want    string // resolved model name; "" means expect an error
		wantErr string
	}{
		{"dlrm default section", ModelSpec{Preset: "dlrm"}, "DLRM", ""},
		{"bert 5.6", ModelSpec{Preset: "bert", Section: "5.6"}, "BERT", ""},
		{"candle 6", ModelSpec{Preset: "candle", Section: "6"}, "CANDLE", ""},
		{"ncf ignores section", ModelSpec{Preset: "NCF"}, "NCF", ""},
		{"resnet50", ModelSpec{Preset: "resnet50", Section: "5.3"}, "ResNet50", ""},
		{"vgg16", ModelSpec{Preset: "vgg16"}, "VGG16", ""},
		{"vgg depth override", ModelSpec{Preset: "vgg16", VGGDepth: 19}, "VGG19", ""},
		{"unknown preset", ModelSpec{Preset: "gpt5"}, "", "unknown preset"},
		{"bad section", ModelSpec{Preset: "dlrm", Section: "7.1"}, "", "unknown section"},
		{"bad vgg depth", ModelSpec{Preset: "vgg16", VGGDepth: 11}, "", "vgg_depth"},
		{"vgg depth on dlrm", ModelSpec{Preset: "dlrm", VGGDepth: 19}, "", "vgg_depth"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m, err := tc.spec.Resolve()
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("err = %v, want substring %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if m.Name != tc.want {
				t.Errorf("resolved %q, want %q", m.Name, tc.want)
			}
		})
	}
}

func TestModelSpecBatchOverride(t *testing.T) {
	base, err := ModelSpec{Preset: "bert", Section: "6"}.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	over, err := ModelSpec{Preset: "bert", Section: "6", BatchPerGPU: base.BatchPerGPU * 2}.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if over.BatchPerGPU != base.BatchPerGPU*2 {
		t.Errorf("batch override: got %d, want %d", over.BatchPerGPU, base.BatchPerGPU*2)
	}
}

func TestOptimizeContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := OptimizeContext(ctx, DLRM(Sec6), smallOpts())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestOptimizeAfterCancelIsUndisturbed cancels an optimization somewhere
// mid-flight and checks that a subsequent clean run still reproduces the
// reference plan — i.e. cancellation leaves no corrupted shared state
// (reused simulators, pools) behind, wherever the cancel happened to land.
func TestOptimizeAfterCancelIsUndisturbed(t *testing.T) {
	m := DLRM(Sec6)
	ref, err := Optimize(m, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go cancel() // races the optimization on purpose; either outcome is fine
	if _, err := OptimizeContext(ctx, m, smallOpts()); err != nil &&
		!errors.Is(err, context.Canceled) {
		t.Fatalf("unexpected error: %v", err)
	}
	again, err := Optimize(m, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	if ref.PredictedIteration != again.PredictedIteration {
		t.Errorf("iteration changed after cancelled run: %+v vs %+v",
			ref.PredictedIteration, again.PredictedIteration)
	}
	if len(ref.Circuits) != len(again.Circuits) {
		t.Errorf("circuit count changed after cancelled run: %d vs %d",
			len(ref.Circuits), len(again.Circuits))
	}
}

func TestCompareContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := CompareContext(ctx, CANDLE(Sec6), smallOpts(), ArchIdeal)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestCompareSurfacesCostError(t *testing.T) {
	_, err := Compare(CANDLE(Sec6), smallOpts(), Architecture("warpdrive"))
	if err == nil {
		t.Fatal("expected a cost-model error for an unknown architecture")
	}
	if !strings.Contains(err.Error(), "warpdrive") {
		t.Errorf("error should name the offending architecture: %v", err)
	}
}
