package bench

import (
	"errors"
	"fmt"
	"math/rand"

	"share/internal/nand"
	"share/internal/randfill"
	"share/internal/sim"
	"share/internal/ssd"
)

// The soak experiment is the device-lifetime robustness anchor: it ages
// one device through several full drive-writes of zipfian traffic on
// endogenously decaying media (read disturb + retention + wear, see
// nand.MediaModel) twice — once with the background patrol scrubber
// running at a low duty cycle, once without — and audits every logical
// page at the end. The patrol run must finish with zero uncorrectable
// reads; the unscrubbed control accumulates them as its cold data rots
// past the soft-decode limit. The soak claims in TestFixtureClaims pin
// that contrast as a regression oracle, and BENCH_soak.json carries the
// full telemetry (RBER gauges, blocks refreshed, ECC ladder escalations).
//
// Sizing is fixed rather than Scale-derived: the oracle depends on the
// balance between retention rot rate, patrol duty cycle and drive
// geometry, so the soak device is always the same small 4-die array and
// only Seed varies.

const (
	soakBlocks       = 128
	soakRounds       = 10
	soakWritesPerRnd = 800
	soakReadsPerRnd  = 400
	soakPatrolEvery  = 8              // foreground ops between patrol steps
	soakIdlePerRound = 1 * sim.Second // declared idle time aging retained data
)

// soakMediaModel is deliberately aggressive so a ~20k-op run spans a
// device lifetime. The media clock ticks with NAND service time as well as
// declared idle, so the whole run covers a few tens of virtual seconds;
// at 150 risk/s retained data rots past the 5000 soft-decode limit well
// within the run, while the 2000 patrol threshold (80% of FastLimit)
// leaves the scrubber roughly twenty virtual seconds of headroom to reach
// a block after it crosses.
func soakMediaModel(seed int64) *nand.MediaModel {
	return &nand.MediaModel{
		Seed:            seed,
		WearWeight:      2,
		DisturbWeight:   1,
		RetentionWeight: 150, // per virtual second
		RetentionUnit:   sim.Second,
		PageNoise:       50,
		FastLimit:       2500,
		RetryLimit:      3500,
		SoftLimit:       5000,
	}
}

type soakOutcome struct {
	dev           *ssd.Device
	driveWrites   float64
	uncorrectable int64
	health        ssd.Health
}

// runSoak ages one device through the full soak workload. The patrol flag
// is the only difference between the measured run and the control.
func runSoak(p Params, patrol bool) (*soakOutcome, error) {
	name := "soak-ctl"
	if patrol {
		name = "soak-patrol"
	}
	cfg := ssd.DefaultConfig(soakBlocks)
	cfg.Geometry.PageSize = 512
	cfg.Geometry.PagesPerBlock = 32
	cfg.Geometry.Channels = 2
	cfg.Geometry.DiesPerChannel = 2
	cfg.FTL.CheckpointLogPages = 64
	// The soak fills 100% of logical capacity, so the reserve must cover
	// the per-die GC watermarks plus resident mapping metadata with slack
	// left for relocation; the default 10% leaves none on this small a
	// device.
	cfg.FTL.OverProvision = 0.22
	cfg.Media = soakMediaModel(p.Seed)
	dev, err := ssd.New(name, cfg)
	if err != nil {
		return nil, err
	}
	t := sim.NewSoloTask(name)
	cap := dev.Capacity()
	page := make([]byte, dev.PageSize())
	rng := newRand(p.Seed + 101)
	fill := randfill.New(rng)
	// Write skew and read skew are deliberately offset by a third of the
	// address space: write-cold-but-read-hot pages accumulate pure read
	// disturb, write-cold-read-cold pages accumulate pure retention — the
	// two rot modes only a patrol sweep (not reactive scrubbing alone)
	// fully covers.
	wZipf := rand.NewZipf(rng, 1.2, 1, uint64(cap-1))
	rZipf := rand.NewZipf(rng, 1.2, 1, uint64(cap-1))

	ops := 0
	var uncorrectable int64
	step := func(fn func() error) error {
		if err := fn(); err != nil {
			if errors.Is(err, nand.ErrUncorrectable) {
				uncorrectable++
			} else {
				return err
			}
		}
		ops++
		if patrol && ops%soakPatrolEvery == 0 {
			if _, err := dev.PatrolStep(t); err != nil {
				return fmt.Errorf("patrol step: %w", err)
			}
		}
		return nil
	}

	// Fill the whole logical space once; pages never rewritten after this
	// are the retention-rot population.
	for lpn := 0; lpn < cap; lpn++ {
		fill.Fill(page)
		if err := step(func() error { return dev.WritePage(t, uint32(lpn), page) }); err != nil {
			return nil, fmt.Errorf("%s: fill lpn %d: %w", name, lpn, err)
		}
	}
	for round := 0; round < soakRounds; round++ {
		for i := 0; i < soakWritesPerRnd; i++ {
			lpn := uint32(wZipf.Uint64())
			fill.Fill(page)
			if err := step(func() error { return dev.WritePage(t, lpn, page) }); err != nil {
				return nil, fmt.Errorf("%s: round %d write %d (lpn %d): %w", name, round, i, lpn, err)
			}
		}
		for i := 0; i < soakReadsPerRnd; i++ {
			lpn := uint32((uint64(cap/3) + rZipf.Uint64()) % uint64(cap))
			if err := step(func() error { return dev.ReadPage(t, lpn, page) }); err != nil {
				return nil, fmt.Errorf("%s: round %d read %d (lpn %d): %w", name, round, i, lpn, err)
			}
		}
		if err := dev.Flush(t); err != nil {
			return nil, fmt.Errorf("%s: round %d flush: %w", name, round, err)
		}
		// A burst-idle duty cycle: retained data keeps aging while the
		// host is quiet.
		dev.AdvanceMediaTime(soakIdlePerRound)
	}
	// Final audit: every logical page must still be readable. On the
	// patrol run this is the zero-uncorrectable oracle; on the control it
	// is where the unrefreshed cold data surfaces as loss.
	for lpn := 0; lpn < cap; lpn++ {
		if err := step(func() error { return dev.ReadPage(t, uint32(lpn), page) }); err != nil {
			return nil, fmt.Errorf("%s: audit lpn %d: %w", name, lpn, err)
		}
	}
	st := dev.LifetimeStats()
	// The device counter also covers internal relocation reads (GC and
	// scrub hitting rotten pages), so it bounds the host-visible count from
	// above.
	if st.FTL.UncorrectableReads < uncorrectable {
		return nil, fmt.Errorf("soak: host saw %d uncorrectable reads but device counted only %d",
			uncorrectable, st.FTL.UncorrectableReads)
	}
	return &soakOutcome{
		dev:           dev,
		driveWrites:   float64(st.FTL.HostWrites) / float64(cap),
		uncorrectable: uncorrectable,
		health:        dev.Health(),
	}, nil
}

func init() {
	register(Experiment{
		ID: "soak",
		Title: "Soak: device lifetime under zipfian load on aging media — " +
			"patrol scrubber vs unscrubbed control",
		Run: func(p Params, r *Report) (string, error) {
			p.setDefaults()
			on, err := runSoak(p, true)
			if err != nil {
				return "", err
			}
			off, err := runSoak(p, false)
			if err != nil {
				return "", err
			}
			onSt, offSt := on.dev.LifetimeStats(), off.dev.LifetimeStats()

			r.Metric("drive_writes", on.driveWrites, "x")
			r.Metric("uncorrectable_on", float64(on.uncorrectable), "reads")
			r.Metric("uncorrectable_off", float64(off.uncorrectable), "reads")
			r.Metric("patrol_refreshes", float64(onSt.FTL.PatrolRefreshes), "blocks")
			r.Metric("blocks_refreshed_on", float64(onSt.FTL.ScrubbedBlocks), "blocks")
			r.Metric("blocks_refreshed_off", float64(offSt.FTL.ScrubbedBlocks), "blocks")
			r.Metric("read_retries_on", float64(onSt.FTL.ReadRetries), "reads")
			r.Metric("read_retries_off", float64(offSt.FTL.ReadRetries), "reads")
			r.Metric("soft_decodes_on", float64(onSt.FTL.SoftDecodes), "reads")
			r.Metric("soft_decodes_off", float64(offSt.FTL.SoftDecodes), "reads")
			r.Metric("lost_pages_on", float64(onSt.FTL.LostPages), "pages")
			r.Metric("lost_pages_off", float64(offSt.FTL.LostPages), "pages")
			r.Metric("rber_max_on", on.health.MaxRBER, "rber")
			r.Metric("rber_max_off", off.health.MaxRBER, "rber")
			r.Metric("rber_mean_on", on.health.MeanRBER, "rber")
			r.Metric("rber_mean_off", off.health.MeanRBER, "rber")
			r.Metric("patrol_backlog_on", float64(on.health.PatrolBacklog), "blocks")
			r.Metric("write_amplification_on", onSt.WriteAmplification(), "x")
			r.Device("soak_patrol_on", on.dev)
			r.Device("soak_patrol_off", off.dev)

			out := fmt.Sprintf(
				"soak: %.2f drive-writes over %d rounds on aging media (4-die array, %d blocks)\n"+
					"patrol on : uncorrectable %d, refreshes %d (patrol %d), retries %d, soft %d, max RBER %.2e\n"+
					"patrol off: uncorrectable %d, refreshes %d, retries %d, soft %d, max RBER %.2e\n",
				on.driveWrites, soakRounds, soakBlocks,
				on.uncorrectable, onSt.FTL.ScrubbedBlocks, onSt.FTL.PatrolRefreshes,
				onSt.FTL.ReadRetries, onSt.FTL.SoftDecodes, on.health.MaxRBER,
				off.uncorrectable, offSt.FTL.ScrubbedBlocks,
				offSt.FTL.ReadRetries, offSt.FTL.SoftDecodes, off.health.MaxRBER)
			return out, nil
		},
	})
}
