package main

import (
	"math"
	"sort"
)

// metricDef names one reported metric. The lists below are the benchmark's
// contract: BENCHMARK.json at the repository root carries the same names,
// units and directions, and a test keeps the two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
}

// endToEnd is reported by untraced runs (-trace 0) and gated by
// BENCHMARK.json. Host-clock metrics are medians over the repetitions of a
// run; virtual-clock metrics repeat exactly for a fixed seed, and the run
// checks that they do.
//
// The virtual latency percentiles and failed_ops_frac are printed in the
// report but not gated: simulated latencies are sums of fixed NAND and
// firmware costs, so on some workloads the median and p99.9 land on the
// same value for every seed, and failed_ops_frac is 0. The mean moves with
// any change to the latency distribution and is gated instead.
var endToEnd = []metricDef{
	{"host_ops_per_s", "ops/s", "higher"},
	{"alloc_bytes_per_op", "B/op", "lower"},
	{"allocs_per_op", "allocs/op", "lower"},
	{"setup_s", "s", "lower"},
	{"live_heap_mb", "MB", "lower"},
	{"sim_ops_per_s", "ops/s", "higher"},
	{"sim_latency_mean_ms", "ms", "lower"},
	{"write_amp", "x", "lower"},
	{"dev_write_pages_per_op", "pages/op", "lower"},
}

// reported are the end-to-end metrics the report prints beside endToEnd.
var reported = []metricDef{
	{"sim_latency_p50_ms", "ms", "lower"},
	{"sim_latency_p999_ms", "ms", "lower"},
	{"failed_ops_frac", "fraction", "lower"},
}

// latencyPercentiles maps the reported virtual latency percentiles to p.
var latencyPercentiles = map[string]float64{"sim_latency_p50_ms": 50, "sim_latency_p999_ms": 99.9}

// Calls the harness issues itself and times in traced runs.
const (
	callWritePage = iota
	callReadPage
	callShare
	callCouchSet
	callCouchGet
	callCouchCompact
	callRunTxn
	callLinkbenchRun
	numCalls
)

var callNames = [numCalls]string{
	callWritePage:    "ssd.WritePage",
	callReadPage:     "ssd.ReadPage",
	callShare:        "ssd.Share",
	callCouchSet:     "couch.Set",
	callCouchGet:     "couch.Get",
	callCouchCompact: "couch.Compact",
	callRunTxn:       "pgmini.RunTxn",
	callLinkbenchRun: "linkbench.Run",
}

// layerDefs is every per-layer metric except the per-call spans, which
// perLayerDefs appends. A metric a workload does not exercise reads 0 there.
var layerDefs = []metricDef{
	{"innodb.host_self_s", "s", "lower"},
	{"innodb.group_txns_per_flush", "txns", "higher"},
	{"innodb.flush_batches_per_op", "batches/op", "lower"},
	{"innodb.share_pairs_per_op", "pairs/op", "lower"},
	{"innodb.checkpoints", "count", "lower"},
	{"btree.host_self_s", "s", "lower"},
	{"bufpool.host_self_s", "s", "lower"},
	{"bufpool.hit_ratio", "fraction", "higher"},
	{"bufpool.evictions_per_op", "pages/op", "lower"},
	{"bufpool.flushed_pages_per_op", "pages/op", "lower"},
	{"wal.host_self_s", "s", "lower"},
	{"wal.bytes_per_op", "B/op", "lower"},
	{"wal.pages_per_op", "pages/op", "lower"},
	{"wal.syncs_per_op", "syncs/op", "lower"},
	{"pgmini.host_self_s", "s", "lower"},
	{"pgmini.full_images_per_op", "images/op", "lower"},
	{"pgmini.checkpoints", "count", "lower"},
	{"couch.host_self_s", "s", "lower"},
	{"couch.doc_pages_per_op", "pages/op", "lower"},
	{"couch.node_pages_per_op", "pages/op", "lower"},
	{"couch.header_pages_per_op", "pages/op", "lower"},
	{"couch.share_pairs_per_op", "pairs/op", "lower"},
	{"couch.compactions", "count", "lower"},
	{"couch.read_barriers_per_op", "commits/op", "lower"},
	{"couch.compact_host_s", "s", "lower"},
	{"couch.compact_sim_s", "s", "lower"},
	{"fsim.host_self_s", "s", "lower"},
	{"fsim.meta_journal_writes_per_op", "pages/op", "lower"},
	{"fsim.meta_home_writes_per_op", "pages/op", "lower"},
	{"ssd.host_self_s", "s", "lower"},
	{"ssd.read_p50_ms", "ms", "lower"},
	{"ssd.read_p99_ms", "ms", "lower"},
	{"ssd.write_p50_ms", "ms", "lower"},
	{"ssd.write_p99_ms", "ms", "lower"},
	{"ssd.share_p99_ms", "ms", "lower"},
	{"ssd.gc_stall_frac", "fraction", "lower"},
	{"ssd.die_busy_frac", "fraction", "higher"},
	{"ssd.die_wait_ms", "ms/op", "lower"},
	{"ftl.host_self_s", "s", "lower"},
	{"ftl.gc_events_per_op", "events/op", "lower"},
	{"ftl.copybacks_per_op", "pages/op", "lower"},
	{"ftl.erases_per_op", "blocks/op", "lower"},
	{"ftl.log_pages_per_op", "pages/op", "lower"},
	{"ftl.map_pages_per_op", "pages/op", "lower"},
	{"ftl.share_remap_ratio", "fraction", "higher"},
	{"nand.host_self_s", "s", "lower"},
	{"nand.programs_per_op", "pages/op", "lower"},
	{"nand.reads_per_op", "pages/op", "lower"},
	{"sim.host_self_s", "s", "lower"},
	{"metrics.host_self_s", "s", "lower"},
	{"runtime.host_self_s", "s", "lower"},
	{"runtime.malloc_self_s", "s", "lower"},
	{"runtime.gc_self_s", "s", "lower"},
	{"runtime.gc_cycles", "count", "lower"},
	{"harness.host_self_s", "s", "lower"},
	{"trace.untraced_host_ops_per_s", "ops/s", "higher"},
	{"trace.traced_host_ops_per_s", "ops/s", "higher"},
	{"trace.overhead_frac", "fraction", "lower"},
}

// perLayerDefs is the full traced-run metric list: the layer metrics plus
// four span percentiles per harness call.
func perLayerDefs() []metricDef {
	defs := append([]metricDef(nil), layerDefs...)
	for _, c := range callNames {
		defs = append(defs,
			metricDef{"call." + c + ".host_ns_p50", "ns", "lower"},
			metricDef{"call." + c + ".host_ns_p99", "ns", "lower"},
			metricDef{"call." + c + ".sim_ms_p50", "ms", "lower"},
			metricDef{"call." + c + ".sim_ms_p999", "ms", "lower"},
		)
	}
	return defs
}

// minTail is the number of samples that must lie beyond a reported
// percentile for it to be supported by the sample.
const minTail = 10

// supported reports whether n samples hold at least minTail samples above
// the p-th percentile (0 < p < 100).
func supported(p float64, n int) bool {
	return float64(n)*(100-p)/100 >= minTail-1e-9 // 99.9 is not exact in binary
}

// percentile returns the nearest-rank p-th percentile of sorted, or 0 for
// an empty slice.
func percentile(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rankOf(p, len(sorted))-1]
}

// rankOf returns the 1-based nearest rank of the p-th percentile of n
// samples.
func rankOf(p float64, n int) int {
	rank := int(math.Ceil(p/100*float64(n) - 1e-9)) // 99.9 is not exact in binary
	return max(1, min(rank, n))
}

// sortedCopy returns xs sorted ascending, leaving xs untouched.
func sortedCopy(xs []int64) []int64 {
	out := append([]int64(nil), xs...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// median returns the median of xs (the mean of the middle pair for an
// even count), or 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// ratio returns a/b, or 0 when b is 0 (a layer the workload bypasses).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
