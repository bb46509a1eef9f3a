package bench

import (
	"strings"
	"testing"
)

func TestRegistryComplete(t *testing.T) {
	// Every paper artifact and ablation must be registered.
	want := []string{
		"fig5a", "fig5b", "fig6", "table1", "fig7", "fig8", "table2",
		"pgfpw", "abl-sharetable", "abl-batch", "abl-op", "abl-atomic", "abl-sqlite", "abl-queue", "abl-ycsb",
		"smoke", "scale", "soak", "streams", "tenants", "writepath", "cache",
	}
	for _, id := range want {
		if _, err := Get(id); err != nil {
			t.Errorf("experiment %s missing: %v", id, err)
		}
	}
	if len(All()) != len(want) {
		t.Errorf("registry has %d experiments, want %d", len(All()), len(want))
	}
	if _, err := Get("nope"); err == nil {
		t.Error("unknown id accepted")
	}
}

func TestAllSorted(t *testing.T) {
	all := All()
	for i := 1; i < len(all); i++ {
		if all[i-1].ID >= all[i].ID {
			t.Fatalf("registry not sorted: %s >= %s", all[i-1].ID, all[i].ID)
		}
	}
	for _, e := range all {
		if e.Title == "" || e.Run == nil {
			t.Fatalf("experiment %s incomplete", e.ID)
		}
	}
}

// TestExperimentsRunTiny executes a non-fixture experiment end to end at
// a very small scale; the fixtures run in TestFixtures, and the full set
// via the root BenchmarkExperiments and cmd/sharebench.
func TestExperimentsRunTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are seconds-long; skipped in -short")
	}
	for _, id := range []string{"abl-batch"} {
		t.Run(id, func(t *testing.T) {
			e, err := Get(id)
			if err != nil {
				t.Fatal(err)
			}
			out, rep, err := e.RunWithReport(Params{Scale: 0.004, Seed: 42})
			if err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(out, "\n") {
				t.Fatalf("suspiciously short output: %q", out)
			}
			data, err := rep.JSON()
			if err != nil {
				t.Fatal(err)
			}
			if err := ValidateReportJSON(data); err != nil {
				t.Fatalf("report invalid: %v", err)
			}
			if len(rep.Metrics) == 0 {
				t.Fatal("experiment reported no metrics")
			}
		})
	}
}

// TestScaleSpeedup: the scale fixture attaches die telemetry to the
// three deepest sweep points, with every die busy. The speedup floor is
// a claim in the fixtures table.
func TestScaleSpeedup(t *testing.T) {
	rep, _ := readFixture(t, "scale")
	var withDies int
	for _, d := range rep.Devices {
		if len(d.Dies) > 0 {
			withDies++
			requireDiesBusy(t, d)
		}
	}
	if withDies != 3 {
		t.Fatalf("%d device reports carry die telemetry, want 3", withDies)
	}
}

// TestTenantsScaling: the tenants fixture carries telemetry for the
// deepest sweep point only, with every die busy. The scaling and
// fairness floors are claims in the fixtures table.
func TestTenantsScaling(t *testing.T) {
	rep, _ := readFixture(t, "tenants")
	if len(rep.Devices) != 1 {
		t.Fatalf("%d device reports, want 1 (deepest point)", len(rep.Devices))
	}
	requireDiesBusy(t, rep.Devices[0])
}

func requireDiesBusy(t *testing.T, d DeviceReport) {
	t.Helper()
	for _, ds := range d.Dies {
		if ds.BusyNs <= 0 {
			t.Fatalf("device %s die %d idle: %+v", d.Label, ds.Die, ds)
		}
	}
}

// TestStreamsWAReduction: the streams fixture carries full telemetry for
// the hints leg only, including the per-stream counters the legacy
// reports omit. The WA and copyback reductions are claims in the
// fixtures table.
func TestStreamsWAReduction(t *testing.T) {
	rep, _ := readFixture(t, "streams")
	if len(rep.Devices) != 1 || rep.Devices[0].Label != "hints" {
		t.Fatalf("want one device report labeled hints, got %+v", rep.Devices)
	}
	if len(rep.Devices[0].FTL.StreamWrites) != 2 {
		t.Fatalf("hints device report missing per-stream counters: %+v", rep.Devices[0].FTL)
	}
}

func TestScaledHelper(t *testing.T) {
	if scaled(1000, 0.5) != 500 {
		t.Fatal("scaled arithmetic wrong")
	}
	if scaled(10, 0.0001) != 1 {
		t.Fatal("scaled must clamp to 1")
	}
}

func TestLinkRigBuilds(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a device; skipped in -short")
	}
	p := Params{Scale: 0.004, Seed: 1}
	rig, err := newLinkRig(p, 0, 4096, 50)
	if err != nil {
		t.Fatal(err)
	}
	if rig.dev.Capacity() == 0 {
		t.Fatal("empty device")
	}
	if n := nodesForDevice(rig.dev.CapacityBytes()); n < 500 {
		t.Fatalf("nodesForDevice = %d", n)
	}
}
