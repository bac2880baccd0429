package core

import (
	"testing"

	"topoopt/internal/model"
	"topoopt/internal/parallel"
	"topoopt/internal/traffic"
)

// BenchmarkTopologyFinder is one TopologyFinder call on the demand a cold
// plan starts from: dlrm (§5.3, 64 shardable tables) under the hybrid
// strategy on 32 servers of degree 4. Its MP routes take one
// shortest-path tree per table host, so the 32 trees (~30%) and the
// coin-change routes of the AllReduce ring (~30%) now take similar time.
func BenchmarkTopologyFinder(b *testing.B) {
	m := model.DLRMPreset(model.Sec53)
	n := 32
	dem, err := traffic.FromStrategy(m, parallel.Hybrid(m, n), m.BatchPerGPU)
	if err != nil {
		b.Fatal(err)
	}
	cfg := Config{N: n, D: 4, LinkBW: 100e9}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := TopologyFinder(cfg, dem); err != nil {
			b.Fatal(err)
		}
	}
}
