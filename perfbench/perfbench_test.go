package main

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"flag"
	"math"
	"os"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]int64, 1000)
	for i := range xs {
		xs[i] = int64(i + 1)
	}
	for _, c := range []struct {
		p    float64
		want int64
	}{{50, 500}, {99, 990}, {99.9, 999}, {100, 1000}, {0.01, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("p%v = %d, want %d", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("empty p50 = %d", got)
	}
}

func TestSupportedNeedsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		p    float64
		n    int
		want bool
	}{
		{99.9, 10000, true}, {99.9, 9999, false},
		{99, 1000, true}, {99, 999, false},
		{50, 20, true}, {50, 19, false},
	} {
		if got := supported(c.p, c.n); got != c.want {
			t.Errorf("supported(%v, %d) = %v, want %v", c.p, c.n, got, c.want)
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
}

// synthetic is a profile whose per-layer self time is known by
// construction.
var synthetic = []sample{
	// bufpool's own loop: 30 ms flat in bufpool.
	{[]string{"share/internal/bufpool.(*Pool).DirtyCount", "share/internal/pgmini.(*DB).runTxn", "main.main"}, 30e6},
	// The map iteration it calls is runtime time, not bufpool's.
	{[]string{"internal/runtime/maps.(*Iter).Next", "share/internal/bufpool.(*Pool).DirtyCount"}, 20e6},
	// Allocation on behalf of the WAL: runtime, malloc sub-bucket.
	{[]string{"runtime.mallocgc", "runtime.makeslice", "share/internal/wal.(*Log).Append"}, 7e6},
	// A mark assist inside an allocation counts as GC.
	{[]string{"runtime.scanobject", "runtime.gcDrainN", "runtime.gcAssistAlloc", "runtime.mallocgc", "share/internal/btree.(*Tree).Put"}, 3e6},
	// Background marking.
	{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, 5e6},
	// Standard-library code called from a layer bills to that layer.
	{[]string{"math/rand.(*rngSource).Int63", "math/rand.(*Rand).Intn", "share/internal/linkbench.execOp"}, 4e6},
	// Inlined frames: the innermost repository frame wins.
	{[]string{"share/internal/ftl.(*FTL).lookup", "share/internal/ssd.(*Device).ReadPage"}, 6e6},
	// Nothing from the repository on the stack: the harness.
	{[]string{"sort.insertionSortCmpFunc", "main.sortedCopy", "main.runRep"}, 2e6},
	// A closure keeps its package.
	{[]string{"share/internal/sim.(*Scheduler).Go.func1"}, 1e6},
}

var syntheticWant = map[string]float64{
	"bufpool": 0.030, "runtime": 0.035, "runtime.malloc": 0.007, "runtime.gc": 0.008,
	"linkbench": 0.004, "ftl": 0.006, "harness": 0.002, "sim": 0.001,
}

func checkBuckets(t *testing.T, got map[string]float64) {
	t.Helper()
	for k, want := range syntheticWant {
		if math.Abs(got[k]-want) > 1e-12 {
			t.Errorf("bucket %s = %v s, want %v", k, got[k], want)
		}
	}
	for k := range got {
		if _, ok := syntheticWant[k]; !ok {
			t.Errorf("unexpected bucket %s = %v", k, got[k])
		}
	}
}

func TestBucketSelfKnownProfile(t *testing.T) {
	checkBuckets(t, bucketSelf(synthetic))
}

// pbWriter is a minimal protobuf encoder for building test profiles.
type pbWriter struct{ b []byte }

func (w *pbWriter) varint(v uint64) {
	for v >= 0x80 {
		w.b = append(w.b, byte(v)|0x80)
		v >>= 7
	}
	w.b = append(w.b, byte(v))
}

func (w *pbWriter) uint(field int, v uint64) { w.varint(uint64(field)<<3 | 0); w.varint(v) }

func (w *pbWriter) bytes(field int, b []byte) {
	w.varint(uint64(field)<<3 | 2)
	w.varint(uint64(len(b)))
	w.b = append(w.b, b...)
}

func (w *pbWriter) packed(field int, vs []uint64) {
	var p pbWriter
	for _, v := range vs {
		p.varint(v)
	}
	w.bytes(field, p.b)
}

// encodeProfile writes samples as a gzipped pprof profile the way
// runtime/pprof lays one out: a "samples"/"cpu" value pair per sample,
// one location per frame except that the first two frames of each stack
// share a location (an inlined call), and location ids written packed for
// long stacks and one per field for short ones.
func encodeProfile(samples []sample) []byte {
	var w pbWriter
	strs := []string{""}
	str := func(s string) uint64 {
		for i, x := range strs {
			if x == s {
				return uint64(i)
			}
		}
		strs = append(strs, s)
		return uint64(len(strs) - 1)
	}
	valueType := func(typ, unit string) []byte {
		var v pbWriter
		v.uint(1, str(typ))
		v.uint(2, str(unit))
		return v.b
	}
	w.bytes(fProfileSampleType, valueType("samples", "count"))
	w.bytes(fProfileSampleType, valueType("cpu", "nanoseconds"))
	funcs := map[string]uint64{}
	var fnOrder []string
	nextLoc := uint64(1)
	var locs [][]byte
	for _, s := range samples {
		var ids []uint64
		for i := 0; i < len(s.stack); {
			frames := s.stack[i : i+1]
			if i == 0 && len(s.stack) > 1 {
				frames = s.stack[:2]
			}
			var loc pbWriter
			loc.uint(fLocationID, nextLoc)
			for _, fn := range frames {
				if _, ok := funcs[fn]; !ok {
					funcs[fn] = uint64(len(funcs) + 1)
					fnOrder = append(fnOrder, fn)
				}
				var line pbWriter
				line.uint(fLineFunctionID, funcs[fn])
				line.uint(2, 42)
				loc.bytes(fLocationLine, line.b)
			}
			locs = append(locs, loc.b)
			ids = append(ids, nextLoc)
			nextLoc++
			i += len(frames)
		}
		var sm pbWriter
		if len(ids) > 2 {
			sm.packed(fSampleLocationID, ids)
		} else {
			for _, id := range ids {
				sm.uint(fSampleLocationID, id)
			}
		}
		sm.packed(fSampleValue, []uint64{1, uint64(s.cpuNs)})
		w.bytes(fProfileSample, sm.b)
	}
	for _, l := range locs {
		w.bytes(fProfileLocation, l)
	}
	for _, fn := range fnOrder {
		var f pbWriter
		f.uint(fFunctionID, funcs[fn])
		f.uint(fFunctionName, str(fn))
		w.bytes(fProfileFunction, f.b)
	}
	for _, s := range strs {
		w.bytes(fProfileStringTable, []byte(s))
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(w.b)
	zw.Close()
	return gz.Bytes()
}

func TestParseProfileSynthetic(t *testing.T) {
	got, err := parseProfile(encodeProfile(synthetic))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(synthetic) {
		t.Fatalf("%d samples, want %d", len(got), len(synthetic))
	}
	for i := range got {
		if strings.Join(got[i].stack, ";") != strings.Join(synthetic[i].stack, ";") || got[i].cpuNs != synthetic[i].cpuNs {
			t.Errorf("sample %d = %v, want %v", i, got[i], synthetic[i])
		}
	}
	checkBuckets(t, bucketSelf(got))
}

//go:noinline
func spin(d time.Duration) int {
	n := 0
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			n += i * i
		}
	}
	return n
}

// TestParseProfileFromRuntime decodes a profile the Go runtime wrote.
func TestParseProfileFromRuntime(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	samples, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total, inSpin int64
	for _, s := range samples {
		total += s.cpuNs
		for _, fn := range s.stack {
			if fn == "share/perfbench.spin" || fn == "main.spin" {
				inSpin += s.cpuNs
				break
			}
		}
	}
	if total == 0 || inSpin < total/2 {
		t.Fatalf("profile total %d ns, %d ns under spin", total, inSpin)
	}
}

// benchmarkFile is the part of BENCHMARK.json the program must agree with.
type benchmarkFile struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, program has %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: %s vs %s", i, w.Name, workloads[i].name)
		}
	}
	if len(bf.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, program has %d", len(bf.EndToEnd), len(endToEnd))
	}
	for i, m := range bf.EndToEnd {
		if (metricDef{m.Name, m.Unit, m.Better}) != endToEnd[i] {
			t.Errorf("end_to_end %d: %+v vs %+v", i, m, endToEnd[i])
		}
	}
	pl := perLayerDefs()
	if len(bf.PerLayer) != len(pl) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, program has %d", len(bf.PerLayer), len(pl))
	}
	for i, m := range bf.PerLayer {
		if m != pl[i] {
			t.Errorf("per_layer %d: %+v vs %+v", i, m, pl[i])
		}
	}
}

// layerLink is one row of layers.json: the per-layer metrics of a layer,
// the end-to-end metrics they should move, the workloads where the layer
// does most of its work and those it bypasses.
type layerLink struct {
	Metrics []string
	Moves   []string
	On      []string
	Bypass  []string
}

func TestLayersJSONCoversEveryMetric(t *testing.T) {
	raw, err := os.ReadFile("layers.json")
	if err != nil {
		t.Fatal(err)
	}
	var links map[string]layerLink
	if err := json.Unmarshal(raw, &links); err != nil {
		t.Fatal(err)
	}
	e2e := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), reported...) {
		e2e[d.Name] = true
	}
	wls := map[string]bool{}
	for _, w := range workloads {
		wls[w.name] = true
	}
	covered := map[string]bool{}
	for layer, l := range links {
		for _, m := range l.Metrics {
			covered[m] = true
		}
		for _, m := range l.Moves {
			if !e2e[m] {
				t.Errorf("%s moves unknown metric %s", layer, m)
			}
		}
		for _, w := range append(append([]string(nil), l.On...), l.Bypass...) {
			if !wls[w] {
				t.Errorf("%s names unknown workload %s", layer, w)
			}
		}
		if len(l.Moves) == 0 || len(l.On) == 0 {
			t.Errorf("%s lacks moves or on", layer)
		}
	}
	for _, d := range perLayerDefs() {
		if !covered[d.Name] {
			t.Errorf("per-layer metric %s has no row in layers.json", d.Name)
		}
	}
}

var update = flag.Bool("update", false, "rewrite virtual.json from this run")

// TestWorkloadsShort runs an untraced and a traced repetition of every
// workload at the default seed and an untraced one at a held-out seed. It
// checks the report (every metric present with its unit, no failed
// operation or check), that both default-seed repetitions read the same
// virtual clock, and that the virtual clock of both seeds matches the
// values recorded in virtual.json bit for bit.
func TestWorkloadsShort(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	recorded := map[string]map[string]map[string]float64{}
	raw, err := os.ReadFile("virtual.json")
	if err == nil {
		err = json.Unmarshal(raw, &recorded)
	}
	if err != nil && !*update {
		t.Fatal(err)
	}
	if *update {
		recorded = map[string]map[string]map[string]float64{}
		defer func() {
			out, err := json.MarshalIndent(recorded, "", " ")
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile("virtual.json", append(out, '\n'), 0o644); err != nil {
				t.Fatal(err)
			}
		}()
	}
	for _, wl := range workloads {
		t.Run(wl.name, func(t *testing.T) {
			res := &result{workload: wl.name, seed: 1}
			for _, traced := range []bool{false, true} {
				rp, err := runRep(wl, 1, traced)
				if err != nil {
					t.Fatal(err)
				}
				res.reps = append(res.reps, rp)
			}
			res.checks = 1
			if !sameVirt(res.reps[0].virt, res.reps[1].virt) {
				t.Errorf("virtual clock differs between repetitions: %v vs %v", res.reps[0].virt, res.reps[1].virt)
			}
			heldOut, err := runRep(wl, 2, false)
			if err != nil {
				t.Fatal(err)
			}
			if len(heldOut.fails) > 0 || heldOut.w.failed > 0 {
				t.Errorf("seed 2: %d ops failed, checks failed: %v", heldOut.w.failed, heldOut.fails)
			}
			bySeed := map[string]map[string]float64{"1": res.reps[0].virt, "2": heldOut.virt}
			if *update {
				recorded[wl.name] = bySeed
			} else {
				for seed, virt := range bySeed {
					if want := recorded[wl.name][seed]; !sameVirt(virt, want) {
						t.Errorf("seed %s virtual clock %v, recorded %v", seed, virt, want)
					}
				}
			}
			for _, trace := range []bool{false, true} {
				res.trace = trace
				var out bytes.Buffer
				if err := res.write(&out); err != nil {
					t.Fatal(err)
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var got struct {
					Correct           bool
					Attempted, Failed int64
					Metrics           map[string]jsonMetric
				}
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &got); err != nil {
					t.Fatal(err)
				}
				if !got.Correct || got.Failed != 0 || got.Attempted < 10000 {
					t.Errorf("trace=%v: correct=%v failed=%d attempted=%d\n%s", trace, got.Correct, got.Failed, got.Attempted, out.String())
				}
				want := endToEnd
				if trace {
					want = perLayerDefs()
				}
				if len(got.Metrics) != len(want) {
					t.Errorf("trace=%v: %d metrics, want %d", trace, len(got.Metrics), len(want))
				}
				for _, d := range want {
					m, ok := got.Metrics[d.Name]
					if !ok || m.Unit != d.Unit {
						t.Errorf("trace=%v: metric %s = %+v, want unit %s", trace, d.Name, m, d.Unit)
					}
				}
				if !trace {
					for _, d := range endToEnd {
						if got.Metrics[d.Name].Value <= 0 {
							t.Errorf("end-to-end %s = %v, want > 0", d.Name, got.Metrics[d.Name].Value)
						}
					}
				}
			}
		})
	}
}
