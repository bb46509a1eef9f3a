package stress

import (
	"io"
	"net"
	"sync/atomic"
	"testing"

	"share/internal/client"
	"share/internal/server"
)

// TestStressServer is the make-check stress cell: 8 workers over 3
// tenants, each mirroring its writes locally and verifying every read,
// over real TCP against the full serving stack (protocol loop, couch,
// fsim, qos admission, multi-channel device) under the race detector.
func TestStressServer(t *testing.T) {
	cfg := Config{
		Workers: 8,
		Tenants: 3,
		Cycles:  150,
		Keys:    24,
		Seed:    42,
		Server:  server.Config{Blocks: 256, PageSize: 512, BatchSize: 4},
	}
	if testing.Short() {
		cfg.Workers = 4
		cfg.Cycles = 60
	}
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Log(rep)
	if rep.Failed() {
		t.Fatalf("stress run failed: %s", rep)
	}
	if want := int64(cfg.Workers * cfg.Cycles); rep.Cycles != want {
		t.Fatalf("cycles = %d, want %d", rep.Cycles, want)
	}
}

// TestStressSingleTenant keeps every worker on one tenant so all
// connections contend on one couch store — the hot-latch variant.
func TestStressSingleTenant(t *testing.T) {
	rep, err := Run(Config{
		Workers: 6,
		Tenants: 1,
		Cycles:  80,
		Keys:    16,
		Seed:    7,
		Server:  server.Config{Blocks: 256, PageSize: 512, BatchSize: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Log(rep)
	if rep.Failed() {
		t.Fatalf("stress run failed: %s", rep)
	}
}

// flakyProxy forwards TCP to backend but kills the first drops
// connections on sight — the deterministic stand-in for connection
// resets and server restarts.
func flakyProxy(t *testing.T, backend string, drops int32) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	var seen atomic.Int32
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			if seen.Add(1) <= drops {
				conn.Close()
				continue
			}
			back, err := net.Dial("tcp", backend)
			if err != nil {
				conn.Close()
				continue
			}
			go func() {
				defer back.Close()
				io.Copy(back, conn)
			}()
			go func() {
				defer conn.Close()
				io.Copy(conn, back)
			}()
		}
	}()
	return ln.Addr().String()
}

// TestStressRetriesTransientDrops: a worker whose first two connections
// are reset recovers by redialing with backoff, re-issuing USE, and
// replaying the in-flight command — the run completes with the retries
// counted and zero errors, and the data model still verifies exactly.
func TestStressRetriesTransientDrops(t *testing.T) {
	cfg := Config{Workers: 1, Tenants: 1, Cycles: 40, Keys: 8, Seed: 3,
		Server: server.Config{Blocks: 128, PageSize: 512, BatchSize: 2}}
	s, err := server.New(cfg.Server)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve()
	t.Cleanup(func() { s.Close() })

	rep := worker(flakyProxy(t, addr.String(), 2), 0, cfg)
	t.Log(rep)
	if rep.Retries < 2 {
		t.Fatalf("retries = %d, want >= 2 (two dropped connections)", rep.Retries)
	}
	if rep.Failed() {
		t.Fatalf("transient drops surfaced as errors: %s", rep)
	}
	if rep.Cycles != int64(cfg.Cycles) {
		t.Fatalf("cycles = %d, want %d", rep.Cycles, cfg.Cycles)
	}
}

// TestStressRetryBudgetExhausts: when the transport never comes back the
// retry loop must give up after its bounded budget, not spin forever.
func TestStressRetryBudgetExhausts(t *testing.T) {
	// A listener that drops every connection: dials succeed, commands die.
	addr := flakyProxy(t, "127.0.0.1:1", 1<<30)
	cfg := Config{Workers: 1, Tenants: 1, Cycles: 5, Keys: 4, Seed: 3}
	rep := worker(addr, 0, cfg)
	t.Log(rep)
	if !rep.Failed() {
		t.Fatal("dead transport did not surface as an error")
	}
	if rep.Retries != client.RetryMax {
		t.Fatalf("retries = %d, want exactly the budget %d", rep.Retries, client.RetryMax)
	}
}

// TestReportMerge pins the accounting arithmetic.
func TestReportMerge(t *testing.T) {
	a := Report{Cycles: 10, WriteErrors: 1}
	a.Merge(Report{Cycles: 5, ReadErrors: 2, DataErrors: 3})
	want := Report{Cycles: 15, WriteErrors: 1, ReadErrors: 2, DataErrors: 3}
	if a != want {
		t.Fatalf("merge = %+v, want %+v", a, want)
	}
	if !a.Failed() {
		t.Fatal("Failed() = false with errors present")
	}
	clean := Report{Cycles: 99}
	if clean.Failed() {
		t.Fatal("Failed() = true with no errors")
	}
}
