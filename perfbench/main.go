// Command perfbench is the repository's end-to-end benchmark. One
// invocation runs one workload and prints, as the last line of standard
// output, a JSON object with the keys correct, attempted, failed and
// metrics:
//
//	bash perfbench/run.sh --workload plan-hit --seed 1 --seconds 20 --trace 0
//
// Workloads (see BENCHMARK.json for why each was chosen):
//
//	plan-hit   open-loop cache hits against a two-member topooptd cluster
//	plan-miss  closed-loop uncached plans against one daemon with a WAL
//	repro      the quick-scale experiment suite plus preset fleet sweeps
//
// With --trace 0 the metrics are the end_to_end list of BENCHMARK.json,
// the same names on every workload:
//
//	                  plan-hit                 plan-miss          repro
//	latency_p50_ms    hit p50 at 150 req/s     miss p50           suite wall time, each
//	                                                              experiment at its fastest
//	                                                              pass (repro_s)
//	latency_tail_ms   p90 over plans of the    miss p90           the slowest
//	                  plan's median hit                           experiment's fastest time
//	throughput_per_s  hit capacity            plans per second   tasks per second at the
//	                                                              fastest times
//	plan_iters_per_s  1 / geometric mean predicted iteration time of the plans served,
//	                  returned, or placed by the fleet reference runs
//	alloc_kb_per_op   heap bytes allocated per attempted operation
//	setup_s           median of five set-ups
//
// Hit latency runs from each request's due time. Its per-request p90 and
// p99, the p99-limited maximum rate (traced run only), the sampled heap
// peak and the sweep time are printed but are not metrics: on a shared
// two-vCPU host they swing too far from run to run to gate on.
//
// With --trace 1 the metrics are the per_layer list, timed from this
// program around calls into each layer's public functions; spec.json maps
// each to the end-to-end metric it should move. A layer a workload does
// not exercise reads 0 and the report says why. The lines before the
// result carry the host stamp, the workload's metrics under their own
// names, and a layer-accounting line.
//
// Every run checks its outputs (byte-identical cache hits, fingerprints,
// replayed iteration times, stored digests); a failed check prints the
// result with correct=false and exits 1.
//
//	bash perfbench/run.sh --compare old1.out,old2.out new1.out,new2.out
//
// compares saved outputs by their medians against the bounds in
// BENCHMARK.json and refuses outputs stamped with different hosts.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// benchSpec is perfbench/spec.json: the fixed load parameters, the
// layer → end-to-end metric → workload map, and the stored digests of the
// reproduction's output.
type benchSpec struct {
	HitP99LimitMs    float64           `json:"hit_p99_limit_ms"`
	HitFixedRate     float64           `json:"hit_fixed_rate_per_s"`
	SweepReplicas    int               `json:"sweep_replicas"`
	Layers           []layerEntry      `json:"layers"`
	ReproDigests     map[string]string `json:"repro_sha256"`
	SuiteDigest      string            `json:"suite_sha256"`
	SetupRepetitions int               `json:"setup_repetitions"`
}

type layerEntry struct {
	Metric   string   `json:"metric"`
	Layer    string   `json:"layer"`
	Moves    []string `json:"moves"`
	Workload string   `json:"workload"`
}

//go:embed spec.json
var specJSON []byte

// benchFile mirrors the parts of BENCHMARK.json the program reads: the
// metric names and units it must print, and the bounds --compare applies.
type benchFile struct {
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runCtx is one workload run: its inputs and everything it reports.
type runCtx struct {
	seed    int64
	dur     time.Duration
	trace   bool
	spec    benchSpec
	nproc   int
	e2e     map[string]float64
	layers  map[string]float64
	absent  map[string]string
	checks  []string // failed output checks
	lines   []string // human-readable report lines
	attempt int
	failed  int
}

// check records a failed output check when ok is false.
func (r *runCtx) check(ok bool, format string, args ...any) bool {
	if !ok {
		r.checks = append(r.checks, fmt.Sprintf(format, args...))
	}
	return ok
}

func (r *runCtx) say(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

// layer records a per-layer metric; it is a no-op in untraced runs.
func (r *runCtx) layer(name string, v float64) {
	if r.trace {
		r.layers[name] = v
	}
}

var workloads = map[string]func(*runCtx) error{
	"plan-hit":  runPlanHit,
	"plan-miss": runPlanMiss,
	"repro":     runRepro,
}

func main() {
	var (
		workload = flag.String("workload", "", "plan-hit, plan-miss or repro")
		seed     = flag.Int64("seed", 1, "seed for the generated inputs")
		seconds  = flag.Int("seconds", 20, "length of the timed phase")
		trace    = flag.Int("trace", 0, "1: print the per-layer metrics instead of the end-to-end ones")
		compare  = flag.Bool("compare", false, "compare saved outputs: --compare OLD[,OLD...] NEW[,NEW...]")
	)
	flag.Parse()
	bench, err := readBenchFile()
	if err != nil {
		fatal(err)
	}
	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("--compare takes two comma-separated lists of saved outputs"))
		}
		os.Exit(compareOutputs(bench, strings.Split(flag.Arg(0), ","), strings.Split(flag.Arg(1), ",")))
	}
	run, ok := workloads[*workload]
	if !ok {
		fatal(fmt.Errorf("unknown --workload %q (want plan-hit, plan-miss or repro)", *workload))
	}
	if *seconds < 1 {
		fatal(fmt.Errorf("--seconds must be at least 1"))
	}
	r := &runCtx{
		seed:   *seed,
		dur:    time.Duration(*seconds) * time.Second,
		trace:  *trace == 1,
		nproc:  runtime.NumCPU(),
		e2e:    map[string]float64{},
		layers: map[string]float64{},
		absent: map[string]string{},
	}
	if err := json.Unmarshal(specJSON, &r.spec); err != nil {
		fatal(fmt.Errorf("spec.json: %w", err))
	}
	fmt.Println("host", hostStamp())
	if err := run(r); err != nil {
		fatal(fmt.Errorf("%s: %w", *workload, err))
	}
	for _, l := range r.lines {
		fmt.Println(l)
	}
	defs := bench.EndToEnd
	values := r.e2e
	if r.trace {
		defs, values = bench.PerLayer, r.layers
		layers := map[string]layerEntry{}
		for _, l := range r.spec.Layers {
			layers[l.Metric] = l
		}
		for _, d := range defs {
			l, ok := layers[d.Name]
			if !ok {
				fatal(fmt.Errorf("spec.json maps no layer to per-layer metric %s", d.Name))
			}
			if v, ok := values[d.Name]; ok {
				fmt.Printf("layer %-34s %14.6g %-5s %s -> %s on %s\n", d.Name, v, d.Unit, l.Layer, strings.Join(l.Moves, ", "), l.Workload)
				continue
			}
			reason, ok := r.absent[d.Name]
			if !ok {
				reason = "exercised by " + l.Workload + ", not " + *workload
			}
			fmt.Printf("absent %s: %s\n", d.Name, reason)
			values[d.Name] = 0
		}
	}
	res := result{Correct: len(r.checks) == 0, Attempted: r.attempt, Failed: r.failed,
		Metrics: make(map[string]metricValue, len(defs))}
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			r.check(false, "metric %s was not measured", d.Name)
			continue
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	res.Correct = len(r.checks) == 0
	for _, c := range r.checks {
		fmt.Println("CHECK FAILED:", c)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(2)
}

func readBenchFile() (benchFile, error) {
	var b benchFile
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return b, fmt.Errorf("run from the repository root: %w", err)
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		return b, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return b, nil
}

// host is the stamp every result carries; --compare refuses to compare
// outputs whose stamps differ.
type host struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Platform   string `json:"platform"`
}

func hostStamp() string {
	h := host{CPU: cpuModel(), NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go: runtime.Version(), Platform: runtime.GOOS + "/" + runtime.GOARCH}
	b, _ := json.Marshal(h) // plain strings and ints cannot fail to marshal
	return string(b)
}

func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// quantile returns the q-quantile (0..1) of sorted by linear
// interpolation between closest ranks.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	return sorted[lo] + (pos-float64(lo))*(sorted[lo+1]-sorted[lo])
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func median(v []float64) float64 { return quantile(sortedCopy(v), 0.5) }

func mean(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// geoMeanInverse returns the geometric mean of 1/x over xs: the predicted
// training throughput, in iterations per second, of plans whose iteration
// times are xs seconds.
func geoMeanInverse(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s -= math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

// timedSetup runs setup the spec's number of times, reports the median
// wall time as setup_s, and keeps the last instance; earlier ones are
// torn down with drop.
func timedSetup[T any](r *runCtx, setup func() (T, error), drop func(T)) (T, error) {
	var (
		last  T
		times []float64
	)
	for i := 0; i < r.spec.SetupRepetitions; i++ {
		if i > 0 {
			drop(last)
		}
		t0 := time.Now()
		v, err := setup()
		if err != nil {
			return last, err
		}
		times = append(times, time.Since(t0).Seconds())
		last = v
	}
	r.e2e["setup_s"] = median(times)
	r.say("setup_s %.4f s (median of %d set-ups: %s)", median(times), len(times), fmtList(times, "%.3f"))
	return last, nil
}

// memory ends a timed phase's memory watch: allocation per attempted
// operation is the end-to-end metric, the sampled heap peak is printed.
func (r *runCtx) memory(m *memWatch) {
	alloc, peak := m.Stop(r.attempt)
	r.e2e["alloc_kb_per_op"] = alloc
	r.say("alloc_kb_per_op %.2f KB over %d operations; mem_peak_mb %.2f MB (sampled peak heap)", alloc, r.attempt, peak)
}

func fmtList(v []float64, f string) string {
	parts := make([]string, len(v))
	for i, x := range v {
		parts[i] = fmt.Sprintf(f, x)
	}
	return strings.Join(parts, " ")
}
