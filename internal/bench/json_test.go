package bench

import (
	"bytes"
	"testing"
)

// TestLegacyReportsOmitStreamCounters guards the legacy report format on
// the smoke fixture: a device without host streams serializes with no
// per-stream fields at all, so the pre-streams fixtures stay
// byte-identical. Its device telemetry is otherwise complete: queue
// depth 4, latency summaries and epoch counters.
func TestLegacyReportsOmitStreamCounters(t *testing.T) {
	rep, data := readFixture(t, "smoke")
	for _, field := range []string{"StreamWrites", "StreamCopybacks"} {
		if bytes.Contains(data, []byte(field)) {
			t.Fatalf("legacy smoke report leaks %s", field)
		}
	}
	if len(rep.Devices) == 0 {
		t.Fatal("smoke report has no device telemetry")
	}
	d := rep.Devices[0]
	if d.QueueDepth != 4 {
		t.Fatalf("queue depth %d, want 4", d.QueueDepth)
	}
	if len(d.Latency) == 0 {
		t.Fatal("no latency summaries in device report")
	}
	if d.FTL.HostWrites == 0 || d.Chip.Programs == 0 {
		t.Fatal("epoch counters empty")
	}
}

func TestValidateReportJSON(t *testing.T) {
	if err := ValidateReportJSON([]byte("{")); err == nil {
		t.Fatal("accepted malformed JSON")
	}
	if err := ValidateReportJSON([]byte(`{"schema":"nope"}`)); err == nil {
		t.Fatal("accepted wrong schema")
	}
	good := Report{
		Schema: ReportSchema, Experiment: "x", Title: "y",
		Config: ConfigInfo{Scale: 1, Seed: 42}, Output: "ok\n",
	}
	data, err := good.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateReportJSON(data); err != nil {
		t.Fatalf("rejected valid report: %v", err)
	}
}
