// Benchmarks regenerating every registered experiment — each table and
// figure in the paper's evaluation (§5), the design ablations and the
// fixture experiments — as one sub-benchmark per experiment id. Each
// runs at a small scale and reports its output line count as a custom
// metric; run cmd/sharebench for the full paper-style tables and -scale
// control.
//
//	go test -bench=. -benchmem
//	go test -bench=BenchmarkExperiments/fig5b -benchtime=1x -v
package share_test

import (
	"strings"
	"testing"

	"share/internal/bench"
)

// benchScale keeps every target in the seconds range; cmd/sharebench
// accepts -scale for larger runs.
const benchScale = 0.005

func BenchmarkExperiments(b *testing.B) {
	for _, e := range bench.All() {
		b.Run(e.ID, func(b *testing.B) {
			if testing.Short() {
				b.Skipf("skipping experiment %s in -short mode (run the tier-1 `make check` without benchmarks, or drop -short)", e.ID)
			}
			for i := 0; i < b.N; i++ {
				out, _, err := e.RunWithReport(bench.Params{Scale: benchScale, Seed: 42})
				if err != nil {
					b.Fatalf("%s: %v", e.ID, err)
				}
				if i == 0 {
					b.ReportMetric(float64(strings.Count(out, "\n")), "output-lines")
					if testing.Verbose() {
						b.Logf("\n%s", out)
					}
				}
			}
		})
	}
}
