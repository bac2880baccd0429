package serve

import (
	"testing"

	"topoopt"
)

// TestFingerprintGolden pins the exact hex of every fingerprint family
// for one fixed request each. WAL record keys and cluster shard
// ownership are both functions of these bytes, so any change to the
// canonical JSON, the kind tags or the hashing silently orphans every
// stored result and reshuffles ownership across peers. The requests are
// literals (not shared test helpers) so nothing else can move them.
func TestFingerprintGolden(t *testing.T) {
	spec := topoopt.ModelSpec{Preset: "bert", Section: "6"}
	o := topoopt.Options{Servers: 12, Degree: 4, LinkBandwidth: 25e9,
		Rounds: 1, MCMCIters: 10, Seed: 7}
	fleet := topoopt.FleetSpec{
		Servers: 8, Degree: 1, LinkBandwidth: 1e9,
		Arch: "Fat-tree", Policy: "fifo", Provisioning: "ocs", Seed: 3,
		Trace: topoopt.FleetTraceSpec{Inline: []topoopt.FleetJobSpec{
			{AtS: 0, Workers: 4, FixedDurationS: 50},
			{AtS: 1, Workers: 8, FixedDurationS: 20},
		}},
	}
	for _, tc := range []struct {
		name, got, want string
	}{
		{"plan", PlanRequest{Model: spec, Options: o}.Fingerprint(),
			"8743ca6ad20c98f448e35d7b7a3d0350749ac98ba60c10bcb9ff1ba3a962e652"},
		{"compare", CompareFingerprint(spec, o, []topoopt.Architecture{topoopt.ArchTopoOpt, topoopt.ArchTorus}),
			"fa03886fe7abb8f2e985f8979e93e419d944716ca58b045e776ceb8a457007a7"},
		{"fleet", FleetFingerprint(fleet),
			"cea2a029ce70cb810a6e974995593b0cead95fe424e927f2da556701b22d5622"},
		{"sweep", SweepFingerprint(fleet, 4),
			"910f8e8bc30fbda82288595175b769e1b37fc4f10f71d1a75efda14d93bb7c9a"},
	} {
		if tc.got != tc.want {
			t.Errorf("%s fingerprint = %s, want %s", tc.name, tc.got, tc.want)
		}
	}
}
