package main

import (
	"share/internal/metrics"
	"share/internal/ssd"
)

// layerCounts derives the per-layer count metrics of a repetition's
// windows (w, added up) from the stack's counter deltas (d, keyed as
// rig.counters keys them) and the data device's epoch stats and recorder
// (the harness resets the epoch before the first window). A counter the
// workload's stack does not have reads 0.
func layerCounts(d map[string]float64, dev *ssd.Device, w *window) map[string]float64 {
	ops := float64(w.ops)
	per := func(k string) float64 { return ratio(d[k], ops) }
	st := dev.Stats()
	ftl, chip := st.FTL, st.Chip
	m := map[string]float64{
		"innodb.group_txns_per_flush":     ratio(d["innodb.grouped_txns"], d["innodb.group_commits"]),
		"innodb.flush_batches_per_op":     per("innodb.flush_batches"),
		"innodb.share_pairs_per_op":       per("innodb.share_pairs"),
		"innodb.checkpoints":              d["innodb.checkpoints"],
		"bufpool.hit_ratio":               ratio(d["bufpool.hits"], d["bufpool.hits"]+d["bufpool.misses"]),
		"bufpool.evictions_per_op":        per("bufpool.evictions"),
		"bufpool.flushed_pages_per_op":    per("bufpool.flushed"),
		"wal.bytes_per_op":                per("wal.bytes"),
		"wal.pages_per_op":                per("wal.pages"),
		"wal.syncs_per_op":                per("wal.syncs"),
		"pgmini.full_images_per_op":       per("pgmini.full_images"),
		"pgmini.checkpoints":              d["pgmini.checkpoints"],
		"couch.doc_pages_per_op":          per("couch.doc_pages"),
		"couch.node_pages_per_op":         per("couch.node_pages"),
		"couch.header_pages_per_op":       per("couch.header_pages"),
		"couch.share_pairs_per_op":        per("couch.share_pairs"),
		"couch.compactions":               d["couch.compactions"],
		"fsim.meta_journal_writes_per_op": per("fsim.meta_journal"),
		"fsim.meta_home_writes_per_op":    per("fsim.meta_home"),
		"ftl.gc_events_per_op":            ratio(float64(ftl.GCEvents), ops),
		"ftl.copybacks_per_op":            ratio(float64(ftl.Copybacks), ops),
		"ftl.erases_per_op":               ratio(float64(ftl.Erases), ops),
		"ftl.log_pages_per_op":            ratio(float64(ftl.LogPagesWritten), ops),
		"ftl.map_pages_per_op":            ratio(float64(ftl.MapPagesWritten), ops),
		"ftl.share_remap_ratio":           ratio(float64(ftl.SharePairs), float64(ftl.SharePairs+ftl.ForcedCopies)),
		"nand.programs_per_op":            ratio(float64(chip.Programs), ops),
		"nand.reads_per_op":               ratio(float64(chip.Reads), ops),
	}
	for k, v := range w.extra {
		m[k] = v
	}
	m["couch.read_barriers_per_op"] = ratio(w.extra["couch.read_barriers"], ops)
	delete(m, "couch.read_barriers")

	rec := dev.Metrics()
	read, write := rec.Latency(metrics.CmdRead), rec.Latency(metrics.CmdWrite)
	m["ssd.read_p50_ms"], m["ssd.read_p99_ms"] = read.P50, read.P99
	m["ssd.write_p50_ms"], m["ssd.write_p99_ms"] = write.P50, write.P99
	m["ssd.share_p99_ms"] = rec.Latency(metrics.CmdShare).P99
	// Device service time: the summed latency of every command the
	// device completed in the window.
	var serviceMs float64
	for c := metrics.Cmd(0); c < metrics.NumCmds; c++ {
		s := rec.Latency(c)
		serviceMs += s.Mean * float64(s.Count)
	}
	m["ssd.gc_stall_frac"] = ratio(float64(ftl.GCStallNanos)/1e6, serviceMs)
	if dies := dev.DieTelemetry(); len(dies) > 0 && w.simNs > 0 {
		var busy, wait float64
		for _, ds := range dies {
			busy += float64(ds.BusyNs)
			wait += float64(ds.WaitNs)
		}
		m["ssd.die_busy_frac"] = busy / (float64(len(dies)) * float64(w.simNs))
		m["ssd.die_wait_ms"] = wait / 1e6 / ops
	}
	return m
}

// diff returns after - before for every key of after.
func diff(before, after map[string]float64) map[string]float64 {
	out := make(map[string]float64, len(after))
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}
