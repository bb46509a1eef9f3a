package ssd

import (
	"math/rand"
	"reflect"
	"testing"

	"share/internal/metrics"
	"share/internal/sim"
)

// runEpochWorkload runs the fixed measurement window used by the epoch
// tests — a deterministic burst of random-page writes followed by a
// flush — and returns the epoch stats at the end.
func runEpochWorkload(t *testing.T, d *Device) Stats {
	t.Helper()
	task := sim.NewSoloTask("epoch")
	rng := rand.New(rand.NewSource(7))
	page := make([]byte, d.PageSize())
	n := d.Capacity() / 4
	const writes = 4000
	for i := 0; i < writes; i++ {
		rng.Read(page)
		if err := d.WritePage(task, uint32(rng.Intn(n)), page); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Flush(task); err != nil {
		t.Fatal(err)
	}
	return d.Stats()
}

// TestEpochWAExcludesAging is the regression test for the epoch-skew bug:
// write amplification measured after Age + ResetStats must equal the WA
// of a fresh device running the identical workload. Before the fix,
// Stats folded the aging phase's lifetime NAND programs into the epoch's
// host-write denominator, inflating aged-device WA several-fold. The
// aging level here is gentle enough that the measured window itself
// triggers no GC on either device, so the two epochs are bitwise the
// same workload against the same allocator state shape and must produce
// *identical* program counts.
func TestEpochWAExcludesAging(t *testing.T) {
	mk := func() *Device {
		cfg := DefaultConfig(256)
		d, err := New("ssd", cfg)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}

	fresh := mk()
	fresh.ResetStats()
	freshStats := runEpochWorkload(t, fresh)

	aged := mk()
	task := sim.NewSoloTask("age")
	if err := aged.Age(task, 0.3, 0.2, 99); err != nil {
		t.Fatal(err)
	}
	lifetime := aged.LifetimeStats()
	if lifetime.Chip.Programs == 0 || lifetime.FTL.HostWrites == 0 {
		t.Fatal("aging did not write")
	}
	aged.ResetStats()
	agedStats := runEpochWorkload(t, aged)

	if agedStats.FTL.HostWrites != freshStats.FTL.HostWrites {
		t.Fatalf("host writes differ: aged %d fresh %d",
			agedStats.FTL.HostWrites, freshStats.FTL.HostWrites)
	}
	if agedStats.Chip.Programs != freshStats.Chip.Programs {
		t.Fatalf("epoch programs differ: aged %d fresh %d",
			agedStats.Chip.Programs, freshStats.Chip.Programs)
	}
	if wa, fwa := agedStats.WriteAmplification(), freshStats.WriteAmplification(); wa != fwa {
		t.Fatalf("aged WA %.4f != fresh WA %.4f", wa, fwa)
	}
	// The buggy computation (lifetime programs over epoch host writes)
	// would have reported a WA inflated by the whole aging phase.
	buggy := float64(aged.LifetimeStats().Chip.Programs) / float64(agedStats.FTL.HostWrites)
	if buggy < 2*agedStats.WriteAmplification() {
		t.Fatalf("test lost its teeth: buggy WA %.2f not >> epoch WA %.2f",
			buggy, agedStats.WriteAmplification())
	}
}

// TestEpochCountersZeroAfterReset checks that every diffed counter starts
// the new epoch at zero while gauges keep their absolute values.
func TestEpochCountersZeroAfterReset(t *testing.T) {
	d := testDevice(t)
	task := sim.NewSoloTask("t")
	if err := d.Age(task, 0.8, 2.0, 3); err != nil {
		t.Fatal(err)
	}
	d.ResetStats()
	st := d.Stats()
	lt := d.LifetimeStats()
	if st.FTL.HostWrites != 0 || st.FTL.GCEvents != 0 || st.FTL.Erases != 0 ||
		st.FTL.LogPagesWritten != 0 || st.FTL.Copybacks != 0 {
		t.Fatalf("FTL counters survived reset: %+v", st.FTL)
	}
	if st.Chip.Programs != 0 || st.Chip.Erases != 0 || st.Chip.Reads != 0 {
		t.Fatalf("chip counters survived reset: %+v", st.Chip)
	}
	if lt.Chip.MaxWear == 0 {
		t.Fatal("workload caused no erases; gauge check is vacuous")
	}
	if st.Chip.MaxWear != lt.Chip.MaxWear || st.Chip.MinWear != lt.Chip.MinWear {
		t.Fatalf("wear gauges must pass through: epoch %+v lifetime %+v", st.Chip, lt.Chip)
	}
	if st.FTL.SpareBlocksLeft != lt.FTL.SpareBlocksLeft {
		t.Fatal("SpareBlocksLeft gauge must pass through")
	}
	if lt.FTL.HostWrites == 0 || lt.Chip.Programs == 0 {
		t.Fatal("lifetime counters must be unaffected by ResetStats")
	}
}

// TestErasesMatchChip pins the documented invariant that the FTL's Erases
// counter equals the chip's successful-erase count: the FTL is the chip's
// only client and gcOnce is the only EraseBlock call site.
func TestErasesMatchChip(t *testing.T) {
	d := testDevice(t)
	task := sim.NewSoloTask("t")
	if err := d.Age(task, 0.8, 2.0, 11); err != nil {
		t.Fatal(err)
	}
	st := d.LifetimeStats()
	if st.FTL.GCEvents == 0 {
		t.Fatal("workload did not trigger GC")
	}
	if st.FTL.Erases != st.Chip.Erases {
		t.Fatalf("ftl erases %d != chip erases %d", st.FTL.Erases, st.Chip.Erases)
	}
}

// TestMetricsEpochScoped checks the recorder is cleared with the counter
// baseline and repopulated by the measured window only.
func TestMetricsEpochScoped(t *testing.T) {
	d := testDevice(t)
	task := sim.NewSoloTask("t")
	if err := d.Age(task, 0.5, 0.5, 5); err != nil {
		t.Fatal(err)
	}
	if d.Metrics().Latency(metrics.CmdWrite).Count == 0 {
		t.Fatal("aging recorded no write latencies")
	}
	d.ResetStats()
	if got := d.Metrics().LatencySummaries(); len(got) != 0 {
		t.Fatalf("latency survived reset: %v", got)
	}
	buf := make([]byte, d.PageSize())
	for i := 0; i < 5; i++ {
		if err := d.WritePage(task, uint32(i), buf); err != nil {
			t.Fatal(err)
		}
	}
	if got := d.Metrics().Latency(metrics.CmdWrite).Count; got != 5 {
		t.Fatalf("write count = %d, want 5", got)
	}
}

// TestStatsSubDiffsEveryField enforces the contract on Stats.sub: with
// every numeric and slice field of ftl.Stats and nand.Stats set to
// distinct values in cur and base, each field of the epoch view must be
// cur-base, except the listed gauges, which pass cur through. A counter
// added to either struct without a subtraction line fails here.
func TestStatsSubDiffsEveryField(t *testing.T) {
	gauges := map[string]bool{
		"SpareBlocksLeft": true, "ReadOnly": true,
		"MaxWear": true, "MinWear": true, "BadBlocks": true, "MaxPageRisk": true, "MeanPageRisk": true,
	}
	var cur, base Stats
	fill := func(s reflect.Value, offset int64) {
		for i := 0; i < s.NumField(); i++ {
			v := offset + 10*int64(i+1)
			switch f := s.Field(i); f.Kind() {
			case reflect.Int64:
				f.SetInt(v)
			case reflect.Bool:
				f.SetBool(offset > 0)
			case reflect.Slice:
				f.Set(reflect.ValueOf([]int64{v, v + 1}))
			default:
				t.Fatalf("%s.%s: unhandled kind %s; extend this test", s.Type(), s.Type().Field(i).Name, f.Kind())
			}
		}
	}
	for _, part := range []string{"FTL", "Chip"} {
		fill(reflect.ValueOf(&cur).Elem().FieldByName(part), 1000)
		fill(reflect.ValueOf(&base).Elem().FieldByName(part), 0)
	}
	out := cur.sub(base)
	for _, part := range []string{"FTL", "Chip"} {
		c := reflect.ValueOf(cur).FieldByName(part)
		b := reflect.ValueOf(base).FieldByName(part)
		o := reflect.ValueOf(out).FieldByName(part)
		for i := 0; i < o.NumField(); i++ {
			name := o.Type().Field(i).Name
			if gauges[name] {
				if !reflect.DeepEqual(o.Field(i).Interface(), c.Field(i).Interface()) {
					t.Errorf("%s.%s is a gauge but sub changed it: %v, want %v", part, name, o.Field(i), c.Field(i))
				}
				continue
			}
			var want any
			switch o.Field(i).Kind() {
			case reflect.Int64:
				want = c.Field(i).Int() - b.Field(i).Int()
			case reflect.Slice:
				cs, bs := c.Field(i).Interface().([]int64), b.Field(i).Interface().([]int64)
				want = []int64{cs[0] - bs[0], cs[1] - bs[1]}
			default:
				t.Errorf("%s.%s (%s) cannot be differenced; list it as a gauge", part, name, o.Field(i).Kind())
				continue
			}
			if !reflect.DeepEqual(o.Field(i).Interface(), want) {
				t.Errorf("%s.%s not differenced by sub: %v, want %v (a counter must be subtracted, or listed as a gauge)",
					part, name, o.Field(i), want)
			}
		}
	}
}
