// Command perfbench is the repository's benchmark. It runs one named
// workload against the public APIs of the simulated stack (ssd, fsim,
// innodb, pgmini, couch, linkbench, ycsb) and reports metrics on two
// clocks: virtual time, which is what the simulated drive and engines
// achieve, and host time, which is what the simulator costs to produce it.
//
//	go run . -workload linkbench-share -seed 1 -seconds 10 -trace 0
//
// A run repeats a repetition (set-up of a fresh stack, then the workload's
// measured windows on it) until -seconds of host time have passed, at
// least minReps times. It reports host-clock metrics as medians over the
// windows, set-up time over the repetitions, and checks that every
// repetition reads the same virtual clock. -trace 1 runs a
// separate traced variant that alternates untraced repetitions with
// repetitions under a CPU profile and per-call spans, and reports the
// per-layer metrics plus the tracing overhead. The last line of standard
// output is one JSON object: correct, attempted, failed and metrics.
// The exit status is non-zero when any operation or correctness check
// failed.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"share/internal/stats"
)

const (
	minReps = 3                 // untraced repetitions per run, at least
	hardCap = 150 * time.Second // no repetition starts that would likely end past this
)

func main() {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	var (
		name    = flag.String("workload", "", "workload: "+strings.Join(names, ", "))
		seed    = flag.Int64("seed", 1, "seed the workload's inputs are generated from")
		seconds = flag.Float64("seconds", 10, "host seconds to keep repeating set-up plus measured windows")
		trace   = flag.Int("trace", 0, "1 runs the traced variant and reports the per-layer metrics")
	)
	flag.Parse()
	wl, ok := findWorkload(*name)
	if !ok || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (%s), -trace 0|1 and -seconds > 0\n", strings.Join(names, ", "))
		os.Exit(2)
	}
	res, err := measure(wl, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := res.write(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !res.correct() {
		os.Exit(1)
	}
}

// rep is one repetition: set-up, the workload's measured windows on the
// same stack, the checks.
type rep struct {
	traced   bool
	setupS   float64
	windows  []hostWindow
	gcCycles float64
	liveHeap float64            // bytes
	w        *window            // the windows together
	virt     map[string]float64 // virtual-clock end-to-end metrics
	layer    map[string]float64 // per-layer counts
	checks   int
	fails    []string
	tr       *tracer
	profiles [][]byte
}

// hostWindow is the host-clock record of one measured window.
type hostWindow struct {
	ops             float64
	hostS           float64
	allocB, mallocs float64
}

// runRep sets up a fresh stack and runs the workload's windows on it. The
// virtual clock covers all of a repetition's windows, so it is exact for
// the seed.
func runRep(wl workload, seed int64, traced bool) (*rep, error) {
	rp := &rep{traced: traced}
	runtime.GC() // drop the previous repetition's stack before timing set-up
	t0 := time.Now()
	r, err := wl.setup(seed)
	if err != nil {
		return nil, fmt.Errorf("%s set-up: %w", wl.name, err)
	}
	rp.setupS = time.Since(t0).Seconds()
	dev := r.dataDevice()
	dev.ResetStats()
	before := r.counters()
	if traced {
		rp.tr = &tracer{}
	}
	agg := &window{lat: stats.NewHistogram(), extra: map[string]float64{}}
	for k := 0; k < wl.windows; k++ {
		runtime.GC()
		var prof bytes.Buffer
		if traced {
			if err := pprof.StartCPUProfile(&prof); err != nil {
				return nil, err
			}
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		h0 := time.Now()
		w, err := r.run(rp.tr)
		hostS := time.Since(h0).Seconds()
		runtime.ReadMemStats(&m1)
		if traced {
			pprof.StopCPUProfile()
			rp.profiles = append(rp.profiles, prof.Bytes())
		}
		if err != nil {
			return nil, fmt.Errorf("%s window: %w", wl.name, err)
		}
		rp.windows = append(rp.windows, hostWindow{ops: float64(w.ops), hostS: hostS,
			allocB: float64(m1.TotalAlloc - m0.TotalAlloc), mallocs: float64(m1.Mallocs - m0.Mallocs)})
		rp.gcCycles += float64(m1.NumGC - m0.NumGC)
		agg.add(w)
	}
	rp.w = agg

	ops := float64(agg.ops)
	st := dev.Stats()
	rp.virt = map[string]float64{
		"sim_ops_per_s":          ratio(float64(agg.simOps), float64(agg.simNs)/1e9),
		"sim_latency_mean_ms":    agg.lat.Mean() / 1e6,
		"write_amp":              st.WriteAmplification(),
		"dev_write_pages_per_op": ratio(float64(st.FTL.HostWrites), ops),
	}
	for name, p := range latencyPercentiles {
		rp.virt[name] = float64(agg.lat.Percentile(p)) / 1e6
	}
	rp.layer = layerCounts(diff(before, r.counters()), dev, agg)

	runtime.GC()
	var m2 runtime.MemStats
	runtime.ReadMemStats(&m2)
	rp.liveHeap = float64(m2.HeapAlloc)
	rp.checks, rp.fails = r.check()
	return rp, nil
}

// result aggregates the repetitions of one run.
type result struct {
	workload string
	seed     int64
	trace    bool
	reps     []*rep
	checks   int
	fails    []string
}

func measure(wl workload, seed int64, budget time.Duration, trace bool) (*result, error) {
	res := &result{workload: wl.name, seed: seed, trace: trace}
	start := time.Now()
	var untraced, traced int
	for i := 0; ; i++ {
		rs := time.Now()
		rp, err := runRep(wl, seed, trace && i%2 == 1)
		if err != nil {
			return nil, err
		}
		res.reps = append(res.reps, rp)
		if rp.traced {
			traced++
		} else {
			untraced++
		}
		elapsed, last := time.Since(start), time.Since(rs)
		enough := untraced >= minReps && (!trace || traced >= minReps) && elapsed >= budget
		if enough || elapsed+last > hardCap {
			break
		}
	}
	// Every repetition runs the same inputs, so the virtual clock must
	// read the same in each.
	res.checks = 1
	for _, rp := range res.reps[1:] {
		if !sameVirt(rp.virt, res.reps[0].virt) {
			res.fails = append(res.fails, "virtual-clock metrics differ between repetitions of one seed")
			break
		}
	}
	return res, nil
}

func sameVirt(a, b map[string]float64) bool {
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return len(a) == len(b)
}

func (res *result) attempted() int64 {
	n := int64(res.checks)
	for _, rp := range res.reps {
		n += rp.w.ops + int64(rp.checks)
	}
	return n
}

func (res *result) failed() int64 {
	n := int64(len(res.fails))
	for _, rp := range res.reps {
		n += rp.w.failed + int64(len(rp.fails))
	}
	return n
}

func (res *result) correct() bool { return res.failed() == 0 }

// medianOf returns the median of f over the windows of the untraced
// repetitions (or of the traced ones), which host-clock metrics are
// reported from.
func (res *result) medianOf(traced bool, f func(hostWindow) float64) float64 {
	var xs []float64
	for _, rp := range res.reps {
		if rp.traced == traced {
			for _, hw := range rp.windows {
				xs = append(xs, f(hw))
			}
		}
	}
	return median(xs)
}

func opsPerS(hw hostWindow) float64 { return hw.ops / hw.hostS }

// endToEnd returns the end-to-end metrics: host-clock medians over the
// untraced windows, set-up time and live heap over the repetitions, and
// the virtual clock of the first repetition.
func (res *result) endToEnd() map[string]float64 {
	m := map[string]float64{
		"host_ops_per_s":     res.medianOf(false, opsPerS),
		"alloc_bytes_per_op": res.medianOf(false, func(hw hostWindow) float64 { return hw.allocB / hw.ops }),
		"allocs_per_op":      res.medianOf(false, func(hw hostWindow) float64 { return hw.mallocs / hw.ops }),
	}
	var setups, heaps []float64
	for _, rp := range res.reps {
		setups = append(setups, rp.setupS)
		if !rp.traced {
			heaps = append(heaps, rp.liveHeap/(1<<20))
		}
	}
	m["setup_s"] = median(setups)
	m["live_heap_mb"] = median(heaps)
	m["failed_ops_frac"] = ratio(float64(res.failed()), float64(res.attempted()))
	for k, v := range res.reps[0].virt {
		m[k] = v
	}
	return m
}

// perLayer returns the traced run's per-layer metrics: profile buckets
// per traced window, counts over the first traced repetition (they repeat
// exactly), call spans pooled over every traced window, and the tracing
// overhead.
func (res *result) perLayer() (map[string]float64, map[string]int, error) {
	m := make(map[string]float64)
	all := &tracer{}
	buckets := map[string]float64{}
	var first *rep
	n := 0
	for _, rp := range res.reps {
		if !rp.traced {
			continue
		}
		if first == nil {
			first = rp
		}
		n += len(rp.profiles)
		for _, p := range rp.profiles {
			samples, err := parseProfile(p)
			if err != nil {
				return nil, nil, err
			}
			for k, v := range bucketSelf(samples) {
				buckets[k] += v
			}
		}
		all.merge(rp.tr)
	}
	if n == 0 {
		return nil, nil, fmt.Errorf("no traced window ran")
	}
	for _, d := range layerDefs {
		if layer, ok := strings.CutSuffix(d.Name, ".host_self_s"); ok {
			m[d.Name] = buckets[layer] / float64(n)
		}
	}
	m["runtime.malloc_self_s"] = buckets["runtime.malloc"] / float64(n)
	m["runtime.gc_self_s"] = buckets["runtime.gc"] / float64(n)
	m["runtime.gc_cycles"] = first.gcCycles
	for k, v := range first.layer {
		m[k] = v
	}
	spans, counts := all.metrics()
	for k, v := range spans {
		m[k] = v
	}
	un, tr := res.medianOf(false, opsPerS), res.medianOf(true, opsPerS)
	m["trace.untraced_host_ops_per_s"] = un
	m["trace.traced_host_ops_per_s"] = tr
	m["trace.overhead_frac"] = ratio(un, tr) - 1
	return m, counts, nil
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// write prints the report: provenance, every metric by name with its
// unit and the sample counts behind the percentiles, the checks, and last
// the one-line JSON result.
func (res *result) write(out io.Writer) error {
	first := res.reps[0]
	var un, tr int
	for _, rp := range res.reps {
		if rp.traced {
			tr++
		} else {
			un++
		}
	}
	fmt.Fprintf(out, "perfbench workload=%s seed=%d trace=%v\n", res.workload, res.seed, res.trace)
	fmt.Fprintf(out, "provenance: go=%s nproc=%d GOMAXPROCS=%d ops=%d per repetition in %d windows, repetitions=%d untraced + %d traced\n",
		runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0), first.w.ops, len(first.windows), un, tr)
	l := first.w.lat
	n := l.Count()
	fmt.Fprintf(out, "virtual latency over %d samples (ms): mean=%.6g p50=%.6g p90=%.6g p99=%.6g p99.9=%.6g max=%.6g\n",
		n, l.Mean()/1e6, float64(l.Percentile(50))/1e6, float64(l.Percentile(90))/1e6, float64(l.Percentile(99))/1e6,
		float64(l.Percentile(99.9))/1e6, float64(l.Max())/1e6)

	var perWindow []string
	for _, rp := range res.reps {
		for _, hw := range rp.windows {
			perWindow = append(perWindow, fmt.Sprintf("%.0f", opsPerS(hw)))
		}
	}
	fmt.Fprintf(out, "host ops/s per window: %s\n", strings.Join(perWindow, " "))
	e2e := res.endToEnd()
	fmt.Fprintln(out, "end-to-end (host: median of untraced windows; virtual: exact for the seed):")
	for _, d := range endToEnd {
		fmt.Fprintf(out, "  %-24s %16.6g %s\n", d.Name, e2e[d.Name], d.Unit)
	}
	fmt.Fprintln(out, "reported, not gated:")
	for _, d := range reported {
		fmt.Fprintf(out, "  %-24s %16.6g %s", d.Name, e2e[d.Name], d.Unit)
		if p, ok := latencyPercentiles[d.Name]; ok {
			fmt.Fprintf(out, " (n=%d, %d beyond, supported=%v)", n, n-rankOf(p, n), supported(p, n))
		} else {
			fmt.Fprintf(out, " (%d of %d)", res.failed(), res.attempted())
		}
		fmt.Fprintln(out)
	}

	metrics := make(map[string]jsonMetric)
	if !res.trace {
		for _, d := range endToEnd {
			metrics[d.Name] = jsonMetric{e2e[d.Name], d.Unit}
		}
	} else {
		pl, counts, err := res.perLayer()
		if err != nil {
			return err
		}
		fmt.Fprintln(out, "per-layer (traced repetitions):")
		for _, d := range perLayerDefs() {
			metrics[d.Name] = jsonMetric{pl[d.Name], d.Unit}
			fmt.Fprintf(out, "  %-40s %16.6g %s\n", d.Name, pl[d.Name], d.Unit)
		}
		calls := make([]string, 0, len(counts))
		for c, k := range counts {
			if k > 0 {
				calls = append(calls, fmt.Sprintf("%s=%d", c, k))
			}
		}
		sort.Strings(calls)
		fmt.Fprintf(out, "call span samples: %s\n", strings.Join(calls, " "))
	}
	var fails []string
	fails = append(fails, res.fails...)
	for _, rp := range res.reps {
		fails = append(fails, rp.fails...)
		if rp.w.failed > 0 {
			fails = append(fails, fmt.Sprintf("%d operations failed", rp.w.failed))
		}
	}
	if len(fails) == 0 {
		fmt.Fprintf(out, "checks: all %d passed\n", res.attempted()-sumOps(res))
	}
	for _, f := range fails {
		fmt.Fprintln(out, "FAILED:", f)
	}
	line, err := json.Marshal(struct {
		Correct   bool                  `json:"correct"`
		Attempted int64                 `json:"attempted"`
		Failed    int64                 `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{res.correct(), res.attempted(), res.failed(), metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", line)
	return err
}

func sumOps(res *result) int64 {
	var n int64
	for _, rp := range res.reps {
		n += rp.w.ops
	}
	return n
}
