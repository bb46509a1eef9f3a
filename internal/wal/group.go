package wal

import (
	"sync/atomic"

	"share/internal/sim"
)

// group is the log's group-commit rendezvous. Transactions that appended
// their commit record register (Enlist) under the engine latch that
// orders appends, release that latch and meet in GroupSync: the first
// arrival becomes the leader and issues one Sync for every record
// appended so far; the rest wait for its broadcast. unsynced counts
// commits between Enlist and the end of their GroupSync — Drain waits for
// it to reach zero before a checkpoint truncates the log.
//
// Lock order: the engine latch may be held while taking mu (Enlist,
// Drain); mu is never held across Sync, and nothing takes the engine
// latch under mu.
type group struct {
	mu       sim.Mutex
	cond     sim.Cond // broadcast after each completed sync attempt
	drain    sim.Cond // broadcast when unsynced drops to zero
	syncing  bool     // a leader's sync is in flight
	durable  int64    // LSN horizon made durable by group syncs
	gen      uint64   // completed sync attempts (failure detection)
	err      error    // outcome of the most recent sync attempt
	unsynced int      // commits enlisted but not yet out of GroupSync

	syncs   atomic.Int64 // successful leader syncs
	grouped atomic.Int64 // commits made durable by another commit's sync
}

// Enlist registers a commit whose record has been appended but not yet
// made durable. Call it while still holding the latch that orders the
// appends, so a checkpoint taking that latch and then Drain sees it; every
// Enlist must be followed by exactly one GroupSync.
func (l *Log) Enlist(t *sim.Task) {
	g := &l.gc
	g.mu.Lock(t)
	g.unsynced++
	g.mu.Unlock(t)
}

// GroupSync makes the record at lsn durable, coalescing with concurrent
// commits: the first arrival becomes the leader and issues one Sync
// covering every record appended so far; later arrivals wait for its
// broadcast and only sync themselves if the leader's flush predates their
// append. Call it without the engine latch, so the fsync overlaps other
// sessions' apply phases. It returns the outcome of the sync that covered
// (or failed) this commit, and retires the caller's Enlist.
func (l *Log) GroupSync(t *sim.Task, lsn int64) error {
	g := &l.gc
	g.mu.Lock(t)
	grouped := false
	var err error
	for err == nil && g.durable <= lsn {
		if g.syncing {
			grouped = true
			gen := g.gen
			g.cond.Wait(t, &g.mu)
			if g.gen != gen && g.err != nil && g.durable <= lsn {
				err = g.err
			}
			continue
		}
		g.syncing = true
		g.mu.Unlock(t)
		serr := l.Sync(t)
		durable := l.DurableLSN()
		g.mu.Lock(t)
		g.syncing = false
		g.gen++
		g.err = serr
		if serr == nil {
			if durable > g.durable {
				g.durable = durable
			}
			g.syncs.Add(1)
		} else {
			err = serr
		}
		g.cond.Broadcast(t)
	}
	if grouped && err == nil {
		g.grouped.Add(1)
	}
	g.unsynced--
	if g.unsynced == 0 {
		g.drain.Broadcast(t)
	}
	g.mu.Unlock(t)
	return err
}

// Drain waits until every enlisted commit has left GroupSync. A
// checkpoint calls it under the engine latch before truncating the log:
// holding the latch stops new commits from enlisting, and every enlisted
// commit released it before GroupSync, so the count only falls.
func (l *Log) Drain(t *sim.Task) {
	g := &l.gc
	g.mu.Lock(t)
	for g.unsynced > 0 {
		g.drain.Wait(t, &g.mu)
	}
	g.mu.Unlock(t)
}

// GroupSyncs returns how many log syncs group-commit leaders issued
// successfully.
func (l *Log) GroupSyncs() int64 { return l.gc.syncs.Load() }

// GroupedCommits returns how many commits rode another commit's sync.
func (l *Log) GroupedCommits() int64 { return l.gc.grouped.Load() }
