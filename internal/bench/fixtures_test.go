package bench

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the checked-in BENCH_*.json fixtures from fresh runs")

// claim is one statement a fixture must keep showing: a metric, or the
// ratio "num/den" of two metrics, compared with a constant bound. says
// is the paper or ROADMAP sentence the bound encodes.
type claim struct {
	metric string
	op     string // ">=", ">", "<=" or "<"
	bound  float64
	says   string
}

// fixtures is the set of experiments pinned as BENCH_<id>.json at the
// repo root, each with the claims its report must show. Every fixture is
// generated at default Params.
var fixtures = map[string][]claim{
	"cache": {
		{"cache_gain", ">=", 1.2, "the flash cache tier pays off at steady state over the no-cache baseline"},
		{"hit_rate_steady", ">=", 0.8, "the steady-state working set is served from the cache tier"},
		{"recovery_to_peak_warm/recovery_to_peak_cold", "<", 1, "a warm restart with a revalidated map gets back to peak faster than a cold one"},
		{"recovery_to_peak_faulted/recovery_to_peak_cold", "<", 2, "the fault fallback is not drastically slower than a cold restart"},
		{"recovery_hit_rate_warm/recovery_hit_rate_cold", ">", 1, "the warm restart hits more than the cold one while recovering"},
		{"revalidated_kept_warm", ">", 0, "the warm restart revalidates a useful map"},
		{"revalidated_dropped_faulted", ">", 0, "the faulted restart drops the entries the damaged media corrupted"},
		{"revalidated_kept_faulted", ">", 0, "the faulted restart keeps the undamaged part of the map"},
	},
	"pgfpw": {
		{"full_page_writes=off_tps/full_page_writes=on_tps", ">=", 1.8, "throughput approximately doubled with full_page_writes off (§5.3.1)"},
		{"full_page_writes=off_tps/full_page_writes=on_tps", "<=", 2.2, "throughput approximately doubled with full_page_writes off (§5.3.1)"},
		{"SHARE_tps/full_page_writes=off_tps", ">=", 0.95, "SHARE achieves the off-mode speed while keeping torn-page safety (§5.3.1)"},
	},
	"scale": {
		{"speedup_c4_over_c1_qd8", ">=", 2, "4 channels at least double 1-channel throughput at queue depth 8"},
	},
	"smoke": {
		{"write_amplification", ">", 0, "the smoke epoch writes to flash"},
		{"write_amplification", "<=", 3, "the aging phase does not leak into the measured epoch's write amplification"},
	},
	"soak": {
		{"drive_writes", ">=", 3, "the soak covers at least three drive-writes"},
		{"uncorrectable_on", "<=", 0, "the patrol scrubber holds host-visible uncorrectable reads at zero"},
		{"lost_pages_on", "<=", 0, "the patrol run loses no pages during relocation"},
		{"uncorrectable_off", ">", 0, "the unscrubbed control degrades, so the scrubber is load-bearing"},
		{"patrol_refreshes", ">", 0, "the patrol scrubber refreshes blocks"},
		{"soft_decodes_off", ">", 0, "the control run escalates reads into soft decodes before losing them"},
		{"rber_max_on", ">", 0, "the patrolled device reports a worst-block error rate"},
		{"rber_max_off/rber_max_on", ">", 1, "refreshing keeps the worst-block error rate below the control's"},
	},
	"streams": {
		{"wa_reduction_hints", ">=", 0.03, "host stream hints reduce write amplification vs hints off"},
		{"wa_reduction_auto", ">=", 0.03, "the auto-stream classifier reduces write amplification vs hints off"},
		{"copyback_reduction_hints", ">=", 0.05, "host stream hints reduce GC copybacks vs hints off"},
		{"copyback_reduction_auto", ">=", 0.05, "the auto-stream classifier reduces GC copybacks vs hints off"},
		{"stream0_writes_hints", ">", 0, "both streams carry traffic under host hints"},
		{"stream1_writes_hints", ">", 0, "both streams carry traffic under host hints"},
		{"stream0_writes_auto", ">", 0, "both streams carry traffic under the auto-stream classifier"},
		{"stream1_writes_auto", ">", 0, "both streams carry traffic under the auto-stream classifier"},
		{"couch_stream1_writes_off", "<=", 0, "with couch engine hints off every page lands in stream 0"},
		{"couch_stream1_writes_on", ">", 0, "with couch engine hints on, compaction output flows into stream 1"},
	},
	"table2": {
		{"elapsed_ratio", ">", 1, "SHARE compaction finishes faster than the original (Table 2)"},
		{"written_ratio/elapsed_ratio", ">", 1, "the time improvement is smaller than the byte improvement (Table 2: 3.1x vs 7.5x)"},
	},
	"tenants": {
		{"speedup_t4_c8_over_c1", ">=", 2, "at 4 tenants, 8 clients at least double 1-client throughput"},
		{"fairness_t4_c8", ">=", 0.5, "fair-share billing starves no tenant at t4/c8"},
	},
	"writepath": writepathClaims(),
}

// writepathClaims requires every cell of the crossover map: a winner
// index naming one of the strategies, and positive throughput for each.
func writepathClaims() []claim {
	var cs []claim
	for _, size := range writepathSizes {
		for _, qd := range writepathDepths {
			winner := fmt.Sprintf("winner_s%d_qd%d", size, qd)
			cs = append(cs,
				claim{winner, ">=", 0, "every (IO size, queue depth) cell names a winning strategy"},
				claim{winner, "<", float64(len(writepathStrategies)), "every (IO size, queue depth) cell names a winning strategy"})
			for _, strategy := range writepathStrategies {
				cs = append(cs, claim{fmt.Sprintf("tput_%s_s%d_qd%d", strategy, size, qd), ">", 0,
					"every strategy moves pages in every cell"})
			}
		}
	}
	return cs
}

// check evaluates c against a report's metrics; a missing metric fails.
func (c claim) check(metrics map[string]float64) error {
	get := func(name string) (float64, error) {
		v, ok := metrics[name]
		if !ok {
			return 0, fmt.Errorf("%s: metric %s missing (%s)", c.metric, name, c.says)
		}
		return v, nil
	}
	num, den, ratio := strings.Cut(c.metric, "/")
	v, err := get(num)
	if err != nil {
		return err
	}
	if ratio {
		d, err := get(den)
		if err != nil {
			return err
		}
		v /= d
	}
	var holds bool
	switch c.op {
	case ">=":
		holds = v >= c.bound
	case ">":
		holds = v > c.bound
	case "<=":
		holds = v <= c.bound
	case "<":
		holds = v < c.bound
	default:
		return fmt.Errorf("%s: unknown comparison %q", c.metric, c.op)
	}
	if !holds {
		return fmt.Errorf("%s = %.4g, want %s %g: %s", c.metric, v, c.op, c.bound, c.says)
	}
	return nil
}

func fixturePath(id string) string { return filepath.Join("..", "..", "BENCH_"+id+".json") }

func fixtureIDs() []string {
	ids := make([]string, 0, len(fixtures))
	for id := range fixtures {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// readFixture decodes the checked-in report for id.
func readFixture(t *testing.T, id string) (*Report, []byte) {
	t.Helper()
	data, err := os.ReadFile(fixturePath(id))
	if err != nil {
		t.Fatal(err)
	}
	var rep Report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("%s: %v", fixturePath(id), err)
	}
	return &rep, data
}

// TestFixtureFilesMatchTable: the BENCH_*.json files at the repo root
// are exactly the fixtures table, and each names a registered experiment.
func TestFixtureFilesMatchTable(t *testing.T) {
	paths, err := filepath.Glob(fixturePath("*"))
	if err != nil {
		t.Fatal(err)
	}
	files := map[string]bool{}
	for _, p := range paths {
		id := strings.TrimSuffix(strings.TrimPrefix(filepath.Base(p), "BENCH_"), ".json")
		files[id] = true
		if _, ok := fixtures[id]; !ok {
			t.Errorf("%s has no entry in the fixtures table", p)
		}
	}
	for _, id := range fixtureIDs() {
		if !files[id] {
			t.Errorf("fixture %s has no %s; generate it with `make fixtures`", id, fixturePath(id))
		}
		if _, err := Get(id); err != nil {
			t.Error(err)
		}
	}
}

// TestFixtures runs every fixture experiment once at default Params and
// requires its report to match the checked-in file byte for byte: the
// simulation is deterministic, so any difference is either a behaviour
// change (regenerate and explain the diff) or nondeterminism. With
// -update it rewrites the files instead (`make fixtures`).
func TestFixtures(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every fixture experiment; skipped in -short")
	}
	for _, id := range fixtureIDs() {
		t.Run(id, func(t *testing.T) {
			e, err := Get(id)
			if err != nil {
				t.Fatal(err)
			}
			_, rep, err := e.RunWithReport(Params{})
			if err != nil {
				t.Fatal(err)
			}
			got, err := rep.JSON()
			if err != nil {
				t.Fatal(err)
			}
			if err := ValidateReportJSON(got); err != nil {
				t.Fatalf("invalid report: %v", err)
			}
			path := fixturePath(id)
			if *update {
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s does not match a fresh run: %s\nregenerate with `make fixtures`", path, firstDiff(want, got))
			}
		})
	}
}

// firstDiff describes the first line where a fresh report departs from
// the checked-in one.
func firstDiff(want, got []byte) string {
	w, g := strings.Split(string(want), "\n"), strings.Split(string(got), "\n")
	i := 0
	for i < len(w) && i < len(g) && w[i] == g[i] {
		i++
	}
	line := func(lines []string) string {
		if i < len(lines) {
			return lines[i]
		}
		return ""
	}
	return fmt.Sprintf("line %d\n  file: %s\n  run:  %s", i+1, line(w), line(g))
}

// TestFixtureClaims evaluates every fixture's claims on the checked-in
// report; it runs no experiment, so it also runs under -short.
func TestFixtureClaims(t *testing.T) {
	for _, id := range fixtureIDs() {
		t.Run(id, func(t *testing.T) {
			rep, _ := readFixture(t, id)
			metrics := map[string]float64{}
			for _, m := range rep.Metrics {
				metrics[m.Name] = m.Value
			}
			for _, c := range fixtures[id] {
				if err := c.check(metrics); err != nil {
					t.Error(err)
				}
			}
		})
	}
}

func TestClaimCheck(t *testing.T) {
	m := map[string]float64{"a": 4, "b": 2}
	for _, tc := range []struct {
		c  claim
		ok bool
	}{
		{claim{"a", ">=", 4, ""}, true},
		{claim{"a", ">", 4, ""}, false},
		{claim{"a/b", "<=", 2, ""}, true},
		{claim{"a/b", "<", 2, ""}, false},
		{claim{"a/missing", ">", 0, ""}, false},
		{claim{"missing", "<=", 0, ""}, false},
		{claim{"a", "==", 4, ""}, false},
	} {
		if err := tc.c.check(m); (err == nil) != tc.ok {
			t.Errorf("%+v: err = %v, want ok=%v", tc.c, err, tc.ok)
		}
	}
}
