package bench

import (
	"errors"
	"fmt"

	"share/internal/ftl"
	"share/internal/randfill"
	"share/internal/sim"
	"share/internal/ssd"
)

// The smoke experiment is the fast end-to-end check of the report
// pipeline: a small aged device driven at queue depth 4 by concurrent
// clients mixing every command class, reported through the full
// telemetry pipeline. Its fixture, BENCH_smoke.json, is the
// legacy-format (no host streams) report that TestFixtures compares
// byte for byte.
func init() {
	register(Experiment{
		ID:    "smoke",
		Title: "Smoke: mixed read/write/share/trim workload at queue depth 4 on an aged device",
		Run: func(p Params, r *Report) (string, error) {
			p.setDefaults()
			const (
				clients   = 4
				opsPerCli = 400
			)
			cfg := ssd.DefaultConfig(128)
			cfg.QueueDepth = 4
			dev, err := ssd.New("smoke", cfg)
			if err != nil {
				return "", err
			}
			setup := sim.NewSoloTask("setup")
			if err := dev.Age(setup, 0.5, 0.2, p.Seed); err != nil {
				return "", err
			}
			dev.ResetStats() // measure the mixed workload only, not the aging

			span := dev.Capacity() / 2
			s := sim.NewScheduler()
			var end sim.Duration
			errs := make([]error, clients)
			for i := 0; i < clients; i++ {
				i := i
				s.Go(fmt.Sprintf("cli%d", i), func(task *sim.Task) {
					rng := newRand(p.Seed + int64(i) + 1)
					fill := randfill.New(rng)
					page := make([]byte, dev.PageSize())
					for n := 0; n < opsPerCli; n++ {
						lpn := uint32(rng.Intn(span))
						var err error
						switch n % 8 {
						case 0, 1, 2:
							fill.Fill(page)
							err = dev.WritePage(task, lpn, page)
						case 3, 4:
							if rerr := dev.ReadPage(task, lpn, page); rerr != nil &&
								!errors.Is(rerr, ftl.ErrUnmapped) {
								err = rerr
							}
						case 5:
							src := uint32(rng.Intn(span))
							if serr := dev.Share(task, []ssd.Pair{{Dst: lpn, Src: src, Len: 1}}); serr != nil &&
								!errors.Is(serr, ftl.ErrUnmapped) {
								err = serr
							}
						case 6:
							err = dev.Trim(task, lpn, 1)
						case 7:
							err = dev.Flush(task)
						}
						if err != nil {
							errs[i] = err
							return
						}
					}
					if err := dev.Flush(task); err != nil {
						errs[i] = err
					}
					if task.Now() > end {
						end = task.Now()
					}
				})
			}
			s.Run()
			for _, err := range errs {
				if err != nil {
					return "", err
				}
			}

			st := dev.Stats()
			elapsed := float64(end) / float64(sim.Second)
			totalOps := float64(clients * opsPerCli)
			r.Metric("ops", totalOps, "ops")
			r.Metric("throughput", totalOps/elapsed, "ops/s")
			r.Metric("write_amplification", st.WriteAmplification(), "x")
			r.Device("smoke", dev)

			out := fmt.Sprintf(
				"smoke: %d clients x %d ops at queue depth %d in %.3fs virtual (%.0f ops/s)\n"+
					"host writes %d, NAND programs %d, WA %.3f, GC events %d, shares %d\n",
				clients, opsPerCli, dev.QueueDepth(), elapsed, totalOps/elapsed,
				st.FTL.HostWrites, st.Chip.Programs, st.WriteAmplification(),
				st.FTL.GCEvents, st.FTL.Shares)
			return out, nil
		},
	})
}
