package wal

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"share/internal/sim"
)

// commitRun is the outcome of one runCommits call.
type commitRun struct {
	lsn     []int64 // each commit's record LSN
	err     []error // each commit's GroupSync result
	durable []int64 // DurableLSN read right after each GroupSync returned
	left    atomic.Int64
}

// runCommits drives n commits through the rendezvous the way the engines
// do: append one record and Enlist under a shared latch (the engine
// latch's stand-in), release it, then GroupSync. Every commit enlists
// before any syncs. With sched the commits are scheduler tasks ordered by
// virtual time (each waits 1 ms after enlisting); otherwise they are solo
// tasks on real goroutines held at a barrier. drain, if set, runs on its
// own task once every commit has enlisted (0.5 ms in, under the
// scheduler). runCommits returns once every commit and the drain have.
func runCommits(t *testing.T, l *Log, sched bool, n int, drain func(*sim.Task, *commitRun)) *commitRun {
	t.Helper()
	r := &commitRun{lsn: make([]int64, n), err: make([]error, n), durable: make([]int64, n)}
	var latch sim.Mutex
	var enlisted sync.WaitGroup
	enlisted.Add(n)
	barrier := func(task *sim.Task, d sim.Duration) {
		if sched {
			task.Advance(d)
			return
		}
		enlisted.Wait()
	}
	commit := func(i int, task *sim.Task) {
		latch.Lock(task)
		lsn, err := l.Append(task, []byte(fmt.Sprintf("commit-%d", i)))
		if err != nil {
			latch.Unlock(task)
			t.Errorf("commit %d: append: %v", i, err)
			enlisted.Done()
			return
		}
		l.Enlist(task)
		latch.Unlock(task)
		enlisted.Done()
		barrier(task, sim.Millisecond)
		r.lsn[i] = lsn
		r.err[i] = l.GroupSync(task, lsn)
		r.durable[i] = l.DurableLSN()
		r.left.Add(1)
	}
	if sched {
		s := sim.NewScheduler()
		for i := 0; i < n; i++ {
			s.Go(fmt.Sprintf("commit%d", i), func(task *sim.Task) { commit(i, task) })
		}
		if drain != nil {
			s.Go("drain", func(task *sim.Task) {
				barrier(task, sim.Millisecond/2)
				drain(task, r)
			})
		}
		s.Run()
		return r
	}
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			commit(i, sim.NewSoloTask(fmt.Sprintf("commit%d", i)))
		}()
	}
	if drain != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			task := sim.NewSoloTask("drain")
			barrier(task, 0)
			drain(task, r)
		}()
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(time.Minute):
		t.Fatal("a commit or the drain never left the rendezvous")
	}
	return r
}

var taskModes = []struct {
	name  string
	sched bool
}{{"scheduler", true}, {"solo", false}}

// TestGroupSyncCoalesces: n concurrent commits issue fewer than n log
// syncs, and each commit's record is durable when GroupSync returns.
func TestGroupSyncCoalesces(t *testing.T) {
	const n = 8
	for _, m := range taskModes {
		t.Run(m.name, func(t *testing.T) {
			l, _, _ := testLog(t, 16)
			r := runCommits(t, l, m.sched, n, nil)
			for i := 0; i < n; i++ {
				if r.err[i] != nil {
					t.Fatalf("commit %d: %v", i, r.err[i])
				}
				if r.durable[i] <= r.lsn[i] {
					t.Fatalf("commit %d returned with LSN %d not durable (durable LSN %d)", i, r.lsn[i], r.durable[i])
				}
			}
			if s := l.GroupSyncs(); s < 1 || s >= n {
				t.Fatalf("GroupSyncs = %d for %d commits, want 1..%d", s, n, n-1)
			}
			if m.sched && l.GroupedCommits() != n-1 {
				// Under the scheduler every follower waits on the leader.
				t.Fatalf("GroupedCommits = %d, want %d", l.GroupedCommits(), n-1)
			}
		})
	}
}

// TestGroupSyncLeaderFailure: when the leader's sync fails, every commit
// whose record is not durable gets an error — followers waiting on the
// leader included — and none hangs. The device is power-cut after the
// appends, which stay in the log's memory, so the first page program a
// sync issues fails.
func TestGroupSyncLeaderFailure(t *testing.T) {
	const n = 8
	for _, m := range taskModes {
		t.Run(m.name, func(t *testing.T) {
			l, dev, _ := testLog(t, 16)
			dev.PowerCutAfter(0)
			var drained atomic.Bool
			r := runCommits(t, l, m.sched, n, func(task *sim.Task, _ *commitRun) {
				l.Drain(task)
				drained.Store(true)
			})
			for i := 0; i < n; i++ {
				if r.err[i] == nil {
					t.Fatalf("commit %d: GroupSync succeeded on a power-cut device", i)
				}
				if r.durable[i] > r.lsn[i] {
					t.Fatalf("commit %d: LSN %d reported durable after a failed sync", i, r.lsn[i])
				}
			}
			if !drained.Load() {
				t.Fatal("Drain did not return after every commit failed")
			}
			if l.GroupSyncs() != 0 || l.GroupedCommits() != 0 {
				t.Fatalf("GroupSyncs = %d, GroupedCommits = %d after failed syncs, want 0, 0",
					l.GroupSyncs(), l.GroupedCommits())
			}
		})
	}
}

// TestDrainWaitsForEnlisted: Drain, called while commits are enlisted
// but not yet synced, returns only after every one of them has left
// GroupSync with its record durable.
func TestDrainWaitsForEnlisted(t *testing.T) {
	const n = 6
	for _, m := range taskModes {
		t.Run(m.name, func(t *testing.T) {
			l, _, _ := testLog(t, 16)
			var durableAtDrain, leftAtDrain int64 = -1, -1
			runCommits(t, l, m.sched, n, func(task *sim.Task, r *commitRun) {
				l.Drain(task)
				durableAtDrain = l.DurableLSN()
				leftAtDrain = r.left.Load()
			})
			if durableAtDrain != n {
				t.Fatalf("DurableLSN = %d when Drain returned, want %d", durableAtDrain, n)
			}
			// Under the scheduler a commit's return is ordered before the
			// drainer runs again; solo goroutines may still be returning.
			if m.sched && leftAtDrain != n {
				t.Fatalf("%d of %d commits had left GroupSync when Drain returned", leftAtDrain, n)
			}
		})
	}
}
