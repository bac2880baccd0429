package traffic

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"topoopt/internal/model"
	"topoopt/internal/parallel"
)

func TestMatrixBasics(t *testing.T) {
	m := NewMatrix(4)
	m.Add(0, 1, 100)
	m.Add(0, 1, 50)
	m.Add(2, 2, 999) // self traffic ignored
	if m[0][1] != 150 {
		t.Errorf("m[0][1] = %d, want 150", m[0][1])
	}
	if m[2][2] != 0 {
		t.Errorf("self traffic recorded: %d", m[2][2])
	}
	if m.Total() != 150 || m.Max() != 150 {
		t.Errorf("Total=%d Max=%d", m.Total(), m.Max())
	}
	c := m.Clone()
	c.Add(1, 0, 5)
	if m[1][0] != 0 {
		t.Error("clone aliases original")
	}
	m.AddAll(c)
	if m[0][1] != 300 || m[1][0] != 5 {
		t.Errorf("AddAll wrong: %v", m)
	}
}

func TestRingPerNodeBytes(t *testing.T) {
	// k=16, S=44/2... check the §2.1 number: pure DP DLRM moves "44 GB" of
	// AllReduce transfers total with a 22 GB model: per node 2·15/16·22 GB
	// ≈ 41.25 GB ≈ the paper's 44 GB heatmap peak per ring edge.
	s := int64(22e9)
	got := RingPerNodeBytes(s, 16)
	want := 2 * 15 * s / 16
	if got != want {
		t.Errorf("RingPerNodeBytes = %d, want %d", got, want)
	}
	if RingPerNodeBytes(s, 1) != 0 {
		t.Error("k=1 should move nothing")
	}
}

func TestFromStrategyPureDP(t *testing.T) {
	m := model.CANDLEPreset(model.Sec6)
	st := parallel.DataParallel(m, 8)
	d, err := FromStrategy(m, st, m.BatchPerGPU)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Groups) != 1 {
		t.Fatalf("groups = %d, want 1 merged group", len(d.Groups))
	}
	if d.Groups[0].Bytes != m.TotalParamBytes() {
		t.Errorf("group bytes = %d, want %d", d.Groups[0].Bytes, m.TotalParamBytes())
	}
	if len(d.Groups[0].Members) != 8 {
		t.Errorf("group members = %d, want 8", len(d.Groups[0].Members))
	}
	if d.TotalMPBytes() != 0 {
		t.Error("pure DP should have no MP traffic")
	}
	if d.TotalAllReduceBytes() != 8*RingPerNodeBytes(m.TotalParamBytes(), 8) {
		t.Error("AllReduce volume accounting wrong")
	}
}

func TestFromStrategyHybridDLRM(t *testing.T) {
	m := model.DLRM(model.DLRMConfig{BatchPerGPU: 128, DenseLayers: 2, DenseLayerSize: 512,
		DenseFeatLayers: 2, FeatLayerSize: 512, EmbedDim: 64, EmbedRows: 1e5, EmbedTables: 4})
	st := parallel.Hybrid(m, 8)
	d, err := FromStrategy(m, st, 128)
	if err != nil {
		t.Fatal(err)
	}
	// Dense part still AllReduces across all 8.
	if len(d.Groups) != 1 || d.Groups[0].Bytes != m.DenseParamBytes() {
		t.Fatalf("groups = %+v, want one dense group of %d bytes", d.Groups, m.DenseParamBytes())
	}
	// Each embedding host exchanges batch×64×4 bytes with each of the 7
	// other servers, both directions.
	per := int64(128 * 64 * 4)
	hosts := make(map[int]bool)
	for _, li := range st.ShardedLayers() {
		hosts[st.Layers[li].Group[0]] = true
	}
	for h := range hosts {
		for c := 0; c < 8; c++ {
			if c == h {
				continue
			}
			if d.MP[h][c] < per {
				t.Errorf("MP[%d][%d] = %d, want >= %d", h, c, d.MP[h][c], per)
			}
			if d.MP[h][c] != d.MP[c][h] {
				t.Errorf("MP not symmetric for host %d", h)
			}
		}
	}
	if d.TotalMPBytes() != int64(len(hosts))*0+4*2*7*per {
		// 4 tables × 2 directions × 7 peers × per bytes
		t.Errorf("MP total = %d, want %d", d.TotalMPBytes(), 4*2*7*per)
	}
}

func TestFromStrategyMultiGroup(t *testing.T) {
	// A layer replicated over a subset creates its own AllReduce group.
	m := model.CANDLEPreset(model.Sec6)
	st := parallel.DataParallel(m, 8)
	st.Replicate(0, 0, 1, 2, 3)
	st.Replicate(1, 4, 5, 6, 7)
	d, err := FromStrategy(m, st, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Groups) != 3 {
		t.Fatalf("groups = %d, want 3 (two subsets + the rest)", len(d.Groups))
	}
}

func TestFromStrategyShardedAcrossTwoHosts(t *testing.T) {
	m := model.DLRMPreset(model.Sec6)
	st := parallel.DataParallel(m, 12)
	li := m.ShardableLayers()[0]
	st.PlaceShard(li, 3, 9)
	d, err := FromStrategy(m, st, 64)
	if err != nil {
		t.Fatal(err)
	}
	// Two shards split the activation bytes.
	per := int64(64) * m.Layers[li].ActBytesPerSample / 2
	if d.MP[3][0] != per || d.MP[9][0] != per {
		t.Errorf("split shard MP = %d/%d, want %d each", d.MP[3][0], d.MP[9][0], per)
	}
}

func TestFromStrategyRejectsInvalid(t *testing.T) {
	m := model.CANDLEPreset(model.Sec6)
	st := parallel.DataParallel(m, 4)
	st.Layers[0].Group = nil
	if _, err := FromStrategy(m, st, 1); err == nil {
		t.Error("expected validation error")
	}
}

func TestCombinedMatrixRingDiagonal(t *testing.T) {
	m := model.CANDLEPreset(model.Sec6)
	st := parallel.DataParallel(m, 8)
	d, _ := FromStrategy(m, st, 10)
	tm := d.CombinedMatrix()
	per := RingPerNodeBytes(m.TotalParamBytes(), 8)
	for i := 0; i < 8; i++ {
		if tm[i][(i+1)%8] != per {
			t.Errorf("ring edge %d->%d = %d, want %d", i, (i+1)%8, tm[i][(i+1)%8], per)
		}
	}
	if tm.Total() != 8*per {
		t.Errorf("total = %d, want %d", tm.Total(), 8*per)
	}
}

// TestGroupKeyMatchesSprint pins groupKey to fmt.Sprint of the sorted
// members, the key it replaced: Demand.Groups is ordered by these keys.
func TestGroupKeyMatchesSprint(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 2000; trial++ {
		g := make([]int, rng.Intn(20))
		for i := range g {
			g[i] = rng.Intn([]int{10, 128, 100000}[rng.Intn(3)])
		}
		orig := append([]int(nil), g...)
		sorted := append([]int(nil), g...)
		sort.Ints(sorted)
		if got, want := groupKey(g), fmt.Sprint(sorted); got != want {
			t.Fatalf("groupKey(%v) = %q, want %q", g, got, want)
		}
		for i := range g {
			if g[i] != orig[i] {
				t.Fatalf("groupKey reordered its argument: %v, was %v", g, orig)
			}
		}
	}
}

// BenchmarkFromStrategy derives the demand a cold plan starts from: dlrm
// (§5.3) under the hybrid strategy on 32 servers.
func BenchmarkFromStrategy(b *testing.B) {
	m := model.DLRMPreset(model.Sec53)
	st := parallel.Hybrid(m, 32)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := FromStrategy(m, st, m.BatchPerGPU); err != nil {
			b.Fatal(err)
		}
	}
}
