// Package stress is a randomized multi-tenant stress harness for the
// serving stack: N workers spread over M tenants hammer one shareserver
// (internal/server) over real TCP connections with a seeded mix of sets,
// gets, deletes and commits, tracking every key's expected value and
// counting cycles and errors. Each worker owns a disjoint key range, so
// verification is exact even while other workers churn the same tenant's
// database. The harness is the repo's liveness-and-integrity soak for
// concurrent serving — run it under the race detector (TestStressServer
// in make check) to chase both data races and lost or phantom writes.
package stress

import (
	"fmt"
	"math/rand"
	"strings"

	"share/internal/client"
	"share/internal/server"
)

// Config shapes one stress run.
type Config struct {
	Workers int   // concurrent connections (0: 8)
	Tenants int   // tenants the workers are spread across (0: 2)
	Cycles  int   // operations per worker (0: 200)
	Keys    int   // distinct keys per worker (0: 32)
	Seed    int64 // base seed; worker w uses Seed+w
	Server  server.Config
}

func (c *Config) setDefaults() {
	if c.Workers == 0 {
		c.Workers = 8
	}
	if c.Tenants == 0 {
		c.Tenants = 2
	}
	if c.Cycles == 0 {
		c.Cycles = 200
	}
	if c.Keys == 0 {
		c.Keys = 32
	}
}

// Report accumulates per-worker accounting; Merge folds workers together.
type Report struct {
	Cycles      int64 // operations completed
	Retries     int64 // transport errors recovered by redial + replay
	WriteErrors int64 // SET/DEL/COMMIT failures
	ReadErrors  int64 // GET transport or server errors
	DataErrors  int64 // GET returned the wrong value — integrity violation
}

// Merge adds o into r.
func (r *Report) Merge(o Report) {
	r.Cycles += o.Cycles
	r.Retries += o.Retries
	r.WriteErrors += o.WriteErrors
	r.ReadErrors += o.ReadErrors
	r.DataErrors += o.DataErrors
}

// Failed reports whether the run saw any error at all. Recovered
// retries are not failures: the command went through.
func (r *Report) Failed() bool {
	return r.WriteErrors+r.ReadErrors+r.DataErrors > 0
}

func (r Report) String() string {
	return fmt.Sprintf("cycles=%d retries=%d writeErrs=%d readErrs=%d dataErrs=%d",
		r.Cycles, r.Retries, r.WriteErrors, r.ReadErrors, r.DataErrors)
}

// Run starts a server, drives it with Config.Workers concurrent workers,
// and returns the merged report. The server is torn down before Run
// returns. The only error returned is a setup failure; workload failures
// land in the report.
func Run(cfg Config) (Report, error) {
	cfg.setDefaults()
	s, err := server.New(cfg.Server)
	if err != nil {
		return Report{}, err
	}
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		return Report{}, err
	}
	go s.Serve()
	defer s.Close()

	reports := make(chan Report, cfg.Workers)
	for w := 0; w < cfg.Workers; w++ {
		go func(w int) {
			reports <- worker(addr.String(), w, cfg)
		}(w)
	}
	var total Report
	for w := 0; w < cfg.Workers; w++ {
		total.Merge(<-reports)
	}
	return total, nil
}

// worker runs one connection's op mix: 50% set, 30% verified get, 10%
// delete, 10% commit. It mirrors every mutation in a local model keyed by
// its own disjoint key range, so a get either matches the model exactly
// or counts a DataError.
func worker(addr string, w int, cfg Config) (rep Report) {
	cl := client.New(addr, cfg.Seed+int64(w)+1<<32)
	defer func() {
		cl.Close()
		rep.Retries = int64(cl.Retries)
	}()
	do := cl.Do

	tenant := fmt.Sprintf("tenant%d", w%cfg.Tenants)
	if resp, ok := do("USE " + tenant); !ok || resp != "OK" {
		rep.WriteErrors++
		return rep
	}
	cl.Tenant = tenant // redials re-select the tenant from here on

	rng := rand.New(rand.NewSource(cfg.Seed + int64(w)))
	model := make(map[string]string, cfg.Keys) // key -> value; absent = deleted/never set
	key := func(i int) string { return fmt.Sprintf("w%dk%d", w, i) }

	for c := 0; c < cfg.Cycles; c++ {
		k := key(rng.Intn(cfg.Keys))
		switch op := rng.Intn(10); {
		case op < 5: // set
			v := fmt.Sprintf("v%d-%d", w, c)
			if resp, ok := do(fmt.Sprintf("SET %s %s", k, v)); !ok || resp != "OK" {
				rep.WriteErrors++
				continue
			}
			model[k] = v
		case op < 8: // get + verify
			resp, ok := do("GET " + k)
			if !ok || strings.HasPrefix(resp, "ERR") {
				rep.ReadErrors++
				continue
			}
			want, exists := model[k]
			switch {
			case resp == "NIL" && exists:
				rep.DataErrors++
				continue
			case resp != "NIL" && !exists:
				rep.DataErrors++
				continue
			case resp != "NIL" && resp != "VAL "+want:
				rep.DataErrors++
				continue
			}
		case op < 9: // delete
			resp, ok := do("DEL " + k)
			if !ok || strings.HasPrefix(resp, "ERR") {
				rep.WriteErrors++
				continue
			}
			_, exists := model[k]
			// A replayed DEL may answer NIL because the first attempt
			// landed before the transport died; either way the key is gone.
			if !cl.RetriedLast && (resp == "OK") != exists {
				rep.DataErrors++
				continue
			}
			delete(model, k)
		default: // commit
			if resp, ok := do("COMMIT"); !ok || resp != "OK" {
				rep.WriteErrors++
				continue
			}
		}
		rep.Cycles++
	}

	// Final sweep: every key must match the model exactly.
	for i := 0; i < cfg.Keys; i++ {
		k := key(i)
		resp, ok := do("GET " + k)
		if !ok || strings.HasPrefix(resp, "ERR") {
			rep.ReadErrors++
			continue
		}
		want, exists := model[k]
		if exists != (resp != "NIL") || (exists && resp != "VAL "+want) {
			rep.DataErrors++
		}
	}
	do("QUIT")
	return rep
}
