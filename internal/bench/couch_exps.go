package bench

import (
	"fmt"

	"share/internal/couch"
	"share/internal/fsim"
	"share/internal/sim"
	"share/internal/ssd"
	"share/internal/stats"
	"share/internal/ycsb"
)

// couchRig builds an aged device + fs + couch store and loads the YCSB
// records.
func newCouchRig(p Params, share bool, batch int) (*couch.Store, *ssd.Device, *sim.Task, ycsb.Config, error) {
	dev, task, err := newDataDevice(p, "openssd")
	if err != nil {
		return nil, nil, nil, ycsb.Config{}, err
	}
	fs, err := fsim.Format(task, dev, 256)
	if err != nil {
		return nil, nil, nil, ycsb.Config{}, err
	}
	records := scaled(paperYCSBRecords, p.Scale)
	st, err := couch.Open(task, fs, couch.Config{
		ShareMode: share,
		BatchSize: batch,
		// Compact early enough that the old and new files fit side by
		// side during the swap (live data is ~25% of the drive).
		CompactThreshold: 0.45,
		DocCacheEntries:  records / 10,
		// Keep the index at the paper's depth (3 levels) at reduced
		// scale, so each original-mode update wanders the same number of
		// node pages as on the authors' 250k-document store.
		MaxFanout: fanoutForDepth3(records),
	})
	if err != nil {
		return nil, nil, nil, ycsb.Config{}, err
	}
	cfg := ycsb.Config{
		Records:   records,
		ValueSize: 4000,
		// Sized so even original-mode batch-1 amplification fits the
		// drive without a mid-run compaction; Figures 7 and 8 measure the
		// update path (compaction is Table 2's subject).
		Ops:  scaled(paperYCSBRecords, p.Scale) / 4,
		Seed: p.Seed,
	}
	if err := ycsb.Load(task, st, cfg); err != nil {
		return nil, nil, nil, ycsb.Config{}, err
	}
	dev.ResetStats()
	return st, dev, task, cfg, nil
}

// fanoutForDepth3 returns a per-node entry cap that makes a B+tree over
// n keys three levels deep (root -> internal -> leaf), as the paper's
// 250k-document index was.
func fanoutForDepth3(n int) int {
	f := 2
	for f*f*f < n {
		f++
	}
	if f < 4 {
		f = 4
	}
	return f
}

var batchSweep = []int{1, 4, 16, 64, 256}

func runYCSBSweep(p Params, w ycsb.Workload, r *Report) (*stats.Table, error) {
	tb := stats.NewTable("Batch", "Original (OPS)", "SHARE (OPS)", "Tput ratio",
		"Original (MB)", "SHARE (MB)", "Write ratio")
	lastBatch := batchSweep[len(batchSweep)-1]
	for _, batch := range batchSweep {
		var tput [2]float64
		var bytes [2]int64
		for i, share := range []bool{false, true} {
			st, dev, task, cfg, err := newCouchRig(p, share, batch)
			if err != nil {
				return nil, err
			}
			cfg.Workload = w
			before := st.Stats()
			res, err := ycsb.Run(task, st, cfg)
			if err != nil {
				return nil, err
			}
			after := st.Stats()
			// Update-path writes only (docs + wandering index nodes +
			// commit headers), as Figure 7(b) reports; compaction traffic
			// is Table 2's subject.
			pages := (after.DocPagesWritten - before.DocPagesWritten) +
				(after.NodePagesWritten - before.NodePagesWritten) +
				(after.HeaderPages - before.HeaderPages)
			tput[i] = res.Throughput
			bytes[i] = pages * int64(dev.PageSize())
			if batch == lastBatch {
				label := "original"
				if share {
					label = "share"
				}
				r.Device(fmt.Sprintf("%s-b%d", label, batch), dev)
				r.Engine(fmt.Sprintf("%s-b%d", label, batch), after.Degraded, map[string]int64{
					"commits":               after.Commits,
					"share_pairs":           after.SharePairs,
					"compactions":           after.Compactions,
					"read_only_transitions": after.ReadOnlyTransitions,
				})
			}
		}
		r.Metric(fmt.Sprintf("original_ops_b%d", batch), tput[0], "ops/s")
		r.Metric(fmt.Sprintf("share_ops_b%d", batch), tput[1], "ops/s")
		r.Metric(fmt.Sprintf("original_written_b%d", batch), mb(bytes[0]), "MB")
		r.Metric(fmt.Sprintf("share_written_b%d", batch), mb(bytes[1]), "MB")
		tb.AddRow(batch,
			fmtThroughput(tput[0]), fmtThroughput(tput[1]), ratio(tput[1], tput[0]),
			fmt.Sprintf("%.1f", mb(bytes[0])), fmt.Sprintf("%.1f", mb(bytes[1])),
			ratio(float64(bytes[0]), float64(bytes[1])))
	}
	return tb, nil
}

func init() {
	register(Experiment{
		ID:    "fig7",
		Title: "Figure 7: YCSB workload-F on Couchbase — throughput and written data vs batch size",
		Run: func(p Params, r *Report) (string, error) {
			p.setDefaults()
			tb, err := runYCSBSweep(p, ycsb.WorkloadF, r)
			if err != nil {
				return "", err
			}
			return tb.String() + "\nPaper: SHARE wins 3.45x (batch 1) to 1.96x (batch 256);\n" +
				"write gap narrows 7.86x -> 1.64x as batching amortizes tree writes.\n", nil
		},
	})

	register(Experiment{
		ID:    "fig8",
		Title: "Figure 8: YCSB workload-A on Couchbase — throughput vs batch size",
		Run: func(p Params, r *Report) (string, error) {
			p.setDefaults()
			tb, err := runYCSBSweep(p, ycsb.WorkloadA, r)
			if err != nil {
				return "", err
			}
			return tb.String() + "\nPaper: SHARE wins 2.23x (batch 1) to 1.61x (batch 256).\n", nil
		},
	})

	register(Experiment{
		ID:    "table2",
		Title: "Table 2: Couchbase compaction — elapsed time and written bytes",
		Run: func(p Params, r *Report) (string, error) {
			p.setDefaults()
			tb := stats.NewTable("Mode", "Elapsed (s)", "Written (MB)", "Docs moved")
			var elapsed [2]float64
			var written [2]float64
			for i, share := range []bool{false, true} {
				st, dev, task, cfg, err := newCouchRig(p, share, 16)
				if err != nil {
					return "", err
				}
				// Churn updates until the store holds substantial stale
				// data, as a long-running Couchbase would before its
				// compaction threshold trips.
				cfg.Workload = ycsb.WorkloadF
				cfg.Ops = cfg.Records / 4
				cfg.AutoCompact = false // accumulate stale data for one big compaction
				if _, err := ycsb.Run(task, st, cfg); err != nil {
					return "", err
				}
				dev.ResetStats()
				cs, err := st.Compact(task)
				if err != nil {
					return "", err
				}
				elapsed[i] = float64(cs.Elapsed) / float64(sim.Second)
				written[i] = mb(cs.BytesWritten)
				name := "Original"
				if share {
					name = "SHARE"
				}
				tb.AddRow(name, fmt.Sprintf("%.2f", elapsed[i]),
					fmt.Sprintf("%.1f", written[i]), cs.DocsMoved)
				key := "original"
				if share {
					key = "share"
				}
				r.Metric(key+"_compact_elapsed", elapsed[i], "s")
				r.Metric(key+"_compact_written", written[i], "MB")
				r.Device(key, dev)
			}
			elapsedRatio, writtenRatio := elapsed[0]/elapsed[1], written[0]/written[1]
			r.Metric("elapsed_ratio", elapsedRatio, "x")
			r.Metric("written_ratio", writtenRatio, "x")
			out := tb.String()
			out += fmt.Sprintf("\nElapsed ratio %.1fx (paper 3.1x), written ratio %.1fx (paper 7.5x).\n",
				elapsedRatio, writtenRatio)
			return out, nil
		},
	})
}

func init() {
	register(Experiment{
		ID: "abl-ycsb",
		Title: "Extension: all six YCSB workloads — SHARE's gain tracks the write " +
			"fraction (why the paper measured only A and F)",
		Run: func(p Params, r *Report) (string, error) {
			p.setDefaults()
			tb := stats.NewTable("Workload", "Mix", "Original (OPS)", "SHARE (OPS)", "Gain")
			mixes := map[ycsb.Workload]string{
				ycsb.WorkloadA: "50r/50u",
				ycsb.WorkloadB: "95r/5u",
				ycsb.WorkloadC: "100r",
				ycsb.WorkloadD: "95r/5i latest",
				ycsb.WorkloadE: "95scan/5i",
				ycsb.WorkloadF: "100 rmw",
			}
			for _, w := range []ycsb.Workload{ycsb.WorkloadA, ycsb.WorkloadB, ycsb.WorkloadC,
				ycsb.WorkloadD, ycsb.WorkloadE, ycsb.WorkloadF} {
				var tput [2]float64
				for i, share := range []bool{false, true} {
					st, _, task, cfg, err := newCouchRig(p, share, 4)
					if err != nil {
						return "", err
					}
					cfg.Workload = w
					res, err := ycsb.Run(task, st, cfg)
					if err != nil {
						return "", err
					}
					tput[i] = res.Throughput
				}
				tb.AddRow(w.String(), mixes[w],
					fmtThroughput(tput[0]), fmtThroughput(tput[1]), ratio(tput[1], tput[0]))
				r.Metric("original_ops_"+w.String(), tput[0], "ops/s")
				r.Metric("share_ops_"+w.String(), tput[1], "ops/s")
			}
			return tb.String() + "\nSHARE leaves the read path untouched, so the read-intensive\nworkloads (B-E) see little change — exactly why §5.2 selects A and F.\n", nil
		},
	})
}
