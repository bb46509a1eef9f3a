package bench

import (
	"fmt"
	"math/rand"
	"strings"

	"share/internal/couch"
	"share/internal/fsim"
	"share/internal/sim"
	"share/internal/ssd"
	"share/internal/ycsb"
)

// The streams experiment measures multi-stream, object-aware write
// placement: the same zipfian update traffic ages three identical
// 4-channel devices — one legacy single-stream device (hints off), one
// with two host streams and explicit hot/cold hints from the host, and
// one with two host streams steered by the FTL's auto-stream
// update-frequency classifier. Segregating short-lived (hot) pages from
// long-lived (cold) ones means GC victims are either mostly dead (hot
// blocks) or not picked at all (cold blocks), so the hinted and auto legs
// must show fewer GC copybacks and lower measured write amplification
// than the unhinted leg. A second table runs the whole stack — couch on
// fsim with per-file stream attributes — under YCSB-A to show the
// engine-level hint plumbing (append log vs compaction output) reaching
// the device. The BENCH_streams.json fixture pins the WA and copyback
// reductions (TestFixtureClaims).
func init() {
	register(Experiment{
		ID:    "streams",
		Title: "Streams: write placement under zipfian aging — hints off vs on vs auto",
		Run:   runStreams,
	})
}

const (
	streamsBlocks = 256 // 4-channel geometry, one die per channel
	// Smaller blocks than the OpenSSD default keep three full
	// fill+churn+measure legs in the seconds range without changing the
	// GC dynamics the experiment measures.
	streamsPageSize  = 2048
	streamsPagesPerB = 64
	// Hot set: the zipfian head. With s=1.1 the first 1/16th of the
	// address space receives roughly three quarters of the updates, so
	// "is the lpn in the head?" is the hint an object-aware host would
	// derive from its own write skew.
	streamsHotFrac = 16
	// Enough over-provisioning that the extra open blocks multi-stream
	// mode pins per die (one per host stream) are a small fraction of the
	// free pool; at the default 10% the open-block tax on a 256-block
	// device swamps the segregation benefit being measured.
	streamsOverProvision = 0.20
	// Churn multiple of logical capacity, applied once as unmeasured
	// aging and once as the measured epoch.
	streamsChurn = 2
)

// streamsLeg ages one device through fill + zipfian churn and measures a
// second churn epoch. mode: "off" (legacy single stream, no hints),
// "hints" (two streams, host tags the zipfian head), "auto" (two
// streams, FTL update-frequency classifier, no hints).
func streamsLeg(p Params, mode string) (*ssd.Device, ssd.Stats, error) {
	cfg := ssd.DefaultConfig(streamsBlocks)
	cfg.Geometry.PageSize = streamsPageSize
	cfg.Geometry.PagesPerBlock = streamsPagesPerB
	cfg.Geometry.Channels = 4
	cfg.Geometry.DiesPerChannel = 1
	cfg.FTL.OverProvision = streamsOverProvision
	switch mode {
	case "hints":
		cfg.FTL.HostStreams = 2
	case "auto":
		cfg.FTL.HostStreams = 2
		cfg.FTL.AutoStream = true
	}
	dev, err := ssd.New("streams-"+mode, cfg)
	if err != nil {
		return nil, ssd.Stats{}, err
	}
	t := sim.NewSoloTask("streams-" + mode)
	capacity := dev.Capacity()
	hotCut := uint64(capacity / streamsHotFrac)
	page := make([]byte, dev.PageSize())
	rng := newRand(p.Seed + 31)
	zipf := rand.NewZipf(rng, 1.1, 1, uint64(capacity-1))

	hint := func(lpn uint64) int {
		if mode != "hints" {
			return -1 // off: single stream; auto: classifier decides
		}
		if lpn < hotCut {
			return 1
		}
		return 0
	}
	write := func(lpn uint64) error {
		rng.Read(page[:16])
		return dev.WritePageStream(t, uint32(lpn), page, hint(lpn))
	}

	// Fill the whole logical space (everything starts cold), then one
	// unmeasured churn epoch so GC is active and blocks are scrambled
	// before measurement starts.
	for lpn := 0; lpn < capacity; lpn++ {
		if err := write(uint64(lpn)); err != nil {
			return nil, ssd.Stats{}, fmt.Errorf("streams %s: fill lpn %d: %w", mode, lpn, err)
		}
	}
	churn := streamsChurn * capacity
	for i := 0; i < churn; i++ {
		if err := write(zipf.Uint64()); err != nil {
			return nil, ssd.Stats{}, fmt.Errorf("streams %s: aging write %d: %w", mode, i, err)
		}
	}
	dev.ResetStats()
	for i := 0; i < churn; i++ {
		if err := write(zipf.Uint64()); err != nil {
			return nil, ssd.Stats{}, fmt.Errorf("streams %s: measured write %d: %w", mode, i, err)
		}
	}
	if err := dev.Flush(t); err != nil {
		return nil, ssd.Stats{}, err
	}
	return dev, dev.Stats(), nil
}

// streamsCouchLeg runs the whole-stack leg: couch on fsim under YCSB-A,
// with or without engine stream hints, on a two-stream device. It returns
// the measured epoch stats (post-load).
func streamsCouchLeg(p Params, hints bool) (ssd.Stats, error) {
	name := "streams-couch-off"
	if hints {
		name = "streams-couch-on"
	}
	blocks := scaled(paperDeviceBlocks, p.Scale)
	// Two host streams need one open block per stream per die on top of
	// the gc/meta streams and the GC low-water reserve; 256 blocks is the
	// smallest 4-die device whose over-provisioned pool covers that.
	if blocks < 256 {
		blocks = 256
	}
	cfg := ssd.DefaultConfig(blocks)
	cfg.Geometry.Channels = 4
	cfg.Geometry.DiesPerChannel = 1
	cfg.FTL.HostStreams = 2
	dev, err := ssd.New(name, cfg)
	if err != nil {
		return ssd.Stats{}, err
	}
	task := sim.NewSoloTask(name)
	if err := dev.Age(task, 0.95, 0.3, p.Seed); err != nil {
		return ssd.Stats{}, err
	}
	if err := dev.Trim(task, 0, dev.Capacity()); err != nil {
		return ssd.Stats{}, err
	}
	fs, err := fsim.Format(task, dev, 256)
	if err != nil {
		return ssd.Stats{}, err
	}
	records := scaled(paperYCSBRecords, p.Scale)
	st, err := couch.Open(task, fs, couch.Config{
		BatchSize:        16,
		CompactThreshold: 0.45,
		DocCacheEntries:  records / 10,
		MaxFanout:        fanoutForDepth3(records),
		StreamHints:      hints,
	})
	if err != nil {
		return ssd.Stats{}, err
	}
	ycfg := ycsb.Config{
		Records: records, ValueSize: 4000, Ops: records,
		Workload: ycsb.WorkloadA, Seed: p.Seed, AutoCompact: true,
	}
	if err := ycsb.Load(task, st, ycfg); err != nil {
		return ssd.Stats{}, err
	}
	dev.ResetStats()
	if _, err := ycsb.Run(task, st, ycfg); err != nil {
		return ssd.Stats{}, err
	}
	if err := dev.Flush(task); err != nil {
		return ssd.Stats{}, err
	}
	return dev.Stats(), nil
}

func runStreams(p Params, r *Report) (string, error) {
	p.setDefaults()
	var out strings.Builder
	fmt.Fprintf(&out, "streams: zipfian updates (%dx capacity) on 4-channel %d-block devices\n",
		streamsChurn, streamsBlocks)
	fmt.Fprintf(&out, "%-8s %10s %10s %10s %14s\n", "leg", "WA", "copybacks", "GC-events", "stream-writes")

	type legResult struct {
		wa        float64
		copybacks int64
	}
	results := map[string]legResult{}
	for _, mode := range []string{"off", "hints", "auto"} {
		dev, st, err := streamsLeg(p, mode)
		if err != nil {
			return "", err
		}
		wa := st.WriteAmplification()
		results[mode] = legResult{wa: wa, copybacks: st.FTL.Copybacks}
		r.Metric("wa_"+mode, wa, "x")
		r.Metric("copybacks_"+mode, float64(st.FTL.Copybacks), "pages")
		r.Metric("gc_events_"+mode, float64(st.FTL.GCEvents), "events")
		sw := "-"
		if len(st.FTL.StreamWrites) == 2 {
			sw = fmt.Sprintf("%d/%d", st.FTL.StreamWrites[0], st.FTL.StreamWrites[1])
			r.Metric("stream0_writes_"+mode, float64(st.FTL.StreamWrites[0]), "pages")
			r.Metric("stream1_writes_"+mode, float64(st.FTL.StreamWrites[1]), "pages")
			r.Metric("stream0_copybacks_"+mode, float64(st.FTL.StreamCopybacks[0]), "pages")
			r.Metric("stream1_copybacks_"+mode, float64(st.FTL.StreamCopybacks[1]), "pages")
		}
		fmt.Fprintf(&out, "%-8s %10.3f %10d %10d %14s\n", mode, wa, st.FTL.Copybacks, st.FTL.GCEvents, sw)
		if mode == "hints" {
			r.Device("hints", dev)
		}
	}
	off, hints, auto := results["off"], results["hints"], results["auto"]
	waRed := reduction(off.wa, hints.wa)
	cbRed := reduction(float64(off.copybacks), float64(hints.copybacks))
	r.Metric("wa_reduction_hints", waRed, "frac")
	r.Metric("copyback_reduction_hints", cbRed, "frac")
	r.Metric("wa_reduction_auto", reduction(off.wa, auto.wa), "frac")
	r.Metric("copyback_reduction_auto", reduction(float64(off.copybacks), float64(auto.copybacks)), "frac")
	fmt.Fprintf(&out, "hints: WA -%.1f%%, copybacks -%.1f%%; auto: WA -%.1f%%, copybacks -%.1f%%\n",
		100*waRed, 100*cbRed,
		100*reduction(off.wa, auto.wa), 100*reduction(float64(off.copybacks), float64(auto.copybacks)))

	// Whole-stack leg: the hint travels engine -> fsim -> device.
	fmt.Fprintf(&out, "\ncouch YCSB-A on two-stream device (append log vs compaction output)\n")
	fmt.Fprintf(&out, "%-8s %10s %10s %14s\n", "hints", "WA", "copybacks", "stream-writes")
	for _, hintsOn := range []bool{false, true} {
		st, err := streamsCouchLeg(p, hintsOn)
		if err != nil {
			return "", err
		}
		label := "off"
		if hintsOn {
			label = "on"
		}
		r.Metric("couch_wa_"+label, st.WriteAmplification(), "x")
		r.Metric("couch_copybacks_"+label, float64(st.FTL.Copybacks), "pages")
		sw := "-"
		if len(st.FTL.StreamWrites) == 2 {
			sw = fmt.Sprintf("%d/%d", st.FTL.StreamWrites[0], st.FTL.StreamWrites[1])
			r.Metric("couch_stream0_writes_"+label, float64(st.FTL.StreamWrites[0]), "pages")
			r.Metric("couch_stream1_writes_"+label, float64(st.FTL.StreamWrites[1]), "pages")
		}
		fmt.Fprintf(&out, "%-8s %10.3f %10d %14s\n", label, st.WriteAmplification(), st.FTL.Copybacks, sw)
	}
	return out.String(), nil
}

// reduction returns how much b improves on a, as a fraction of a
// (0.25 = "b is 25% lower than a").
func reduction(a, b float64) float64 {
	if a == 0 {
		return 0
	}
	return (a - b) / a
}
