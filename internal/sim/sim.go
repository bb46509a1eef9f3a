// Package sim provides a deterministic virtual-time concurrency simulator.
//
// Database clients in the reproduction run as goroutines, but their notion of
// time is virtual: each Task owns a private clock measured in nanoseconds.
// A central Scheduler always resumes the runnable task with the smallest
// clock, so execution order — and therefore every experiment result — is
// fully deterministic regardless of Go's goroutine scheduling.
//
// Shared resources (the simulated SSD, the log device) are modeled as
// single-server FIFO queues in virtual time: a task that wants service at
// time t receives it at max(t, resourceFree) and both clocks advance past
// the service time. Because the scheduler resumes tasks in virtual-time
// order, arbitration is by arrival time, which is exactly a FIFO queue.
// Concurrency model. Scheduler tasks are goroutines, but the scheduler
// physically serializes them (channel handoffs establish happens-before
// edges), so scheduler tasks never race with each other. Solo tasks are
// ordinary goroutines with no such serialization: a server front-end may
// drive many solo tasks into the same Device at once. Every shared sim
// object (Resource, MultiResource, Mutex, Cond) therefore carries an
// internal sync.Mutex so concurrent solo submitters are race-free. The
// one rule: an internal lock is never held across Yield — holding a real
// lock while the scheduler hands control to another task that then blocks
// on it would deadlock the process, not the simulation.
//
// Mutex and Cond are dual-mode: scheduler tasks park virtually (the
// scheduler skips blocked tasks until the holder wakes them), solo tasks
// block for real on an internal condition variable. Mixing scheduler and
// solo tasks on the same Mutex/Cond is not supported — a solo unlock
// cannot safely poke a scheduler's run loop.
package sim

import (
	"fmt"
	"math"
	"sync"
)

// Duration is a span of virtual time in nanoseconds.
type Duration = int64

// Common virtual durations.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// Task is a simulated thread of execution with a private virtual clock.
// A Task is either standalone (created by NewSoloTask) or owned by a
// Scheduler (created by Scheduler.Go).
type Task struct {
	name   string
	now    int64
	tenant string // owning tenant, for fair-share admission ("" = none)
	sched  *Scheduler
	// resume is signalled by the scheduler to let this task run;
	// the task signals yielded when it hands control back.
	resume  chan struct{}
	done    bool
	blocked bool // parked on a Mutex; not runnable until woken
	index   int  // position in the scheduler heap, -1 if solo
	seq     int  // stable task id: registration order, the virtual-time tie-break
}

// NewSoloTask returns a Task not attached to any scheduler. Yield is a
// no-op; the task simply accumulates virtual time. Use it for
// single-threaded experiments and unit tests.
func NewSoloTask(name string) *Task {
	return &Task{name: name, index: -1}
}

// Name returns the task's diagnostic name.
func (t *Task) Name() string { return t.name }

// SetTenant tags the task with the tenant on whose behalf it submits
// I/O; fair-share admission (internal/qos) bills service time to it.
func (t *Task) SetTenant(tenant string) { t.tenant = tenant }

// Tenant returns the task's tenant tag ("" if untagged).
func (t *Task) Tenant() string { return t.tenant }

// Now returns the task's current virtual time in nanoseconds.
func (t *Task) Now() int64 { return t.now }

// Advance moves the task's clock forward by d nanoseconds. It does not
// yield; use Yield (or resource acquisition) to let other tasks run.
func (t *Task) Advance(d Duration) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative advance %d on task %s", d, t.name))
	}
	t.now += d
}

// AdvanceTo moves the task's clock to absolute time tt if tt is later than
// the current clock.
func (t *Task) AdvanceTo(tt int64) {
	if tt > t.now {
		t.now = tt
	}
}

// Yield hands control back to the scheduler. The task resumes when it has
// the smallest (virtual clock, task id) among runnable tasks. For solo
// tasks Yield is a no-op.
//
// Fast path: while this task is the one the scheduler dispatched, the
// scheduler publishes the runner-up's (clock, id) threshold. If the task
// still beats it — it would be re-picked immediately — Yield returns
// without the two channel handoffs, which is the dominant per-operation
// cost for runs of same-task operations (a client whose clock stays behind
// every other client's issues its whole burst without a context switch).
// The elided schedule is exactly the one the slow path would produce, so
// virtual-time results are unchanged.
func (t *Task) Yield() {
	s := t.sched
	if s == nil {
		return
	}
	if s.elideOK && s.running == t && !t.blocked &&
		(t.now < s.nextNow || (t.now == s.nextNow && t.seq < s.nextSeq)) {
		return
	}
	s.yielded <- t
	<-t.resume
}

// Scheduler coordinates a set of Tasks in virtual-time order.
type Scheduler struct {
	tasks   []*Task
	yielded chan *Task

	// Yield-elision state, owned by the dispatch loop and the (single)
	// running task it serializes with. While `running` is dispatched and
	// elideOK holds, (nextNow, nextSeq) is the smallest (clock, id) among
	// the other runnable tasks; waking a parked task or registering a new
	// one invalidates the threshold (see noteRunnable).
	running *Task
	elideOK bool
	nextNow int64
	nextSeq int
}

// NewScheduler returns an empty scheduler.
func NewScheduler() *Scheduler {
	return &Scheduler{yielded: make(chan *Task)}
}

// noteRunnable invalidates the yield-elision threshold: a task just became
// runnable (woken from a Mutex/Cond park, or freshly registered), so the
// running task may no longer hold the smallest (clock, id) and must hand
// off on its next Yield for a full scan.
func (s *Scheduler) noteRunnable() { s.elideOK = false }

// Go registers fn as a new task named name. The task does not start running
// until Run is called. Registration order fixes the task's id, which breaks
// virtual-time ties: of two runnable tasks with equal clocks, the earlier-
// registered one runs first, deterministically.
func (s *Scheduler) Go(name string, fn func(t *Task)) *Task {
	t := &Task{name: name, sched: s, resume: make(chan struct{}), seq: len(s.tasks)}
	s.tasks = append(s.tasks, t)
	s.noteRunnable()
	go func() {
		<-t.resume // wait for first dispatch
		fn(t)
		t.done = true
		s.yielded <- t
	}()
	return t
}

// Run drives all registered tasks to completion, always resuming the
// runnable task with the smallest (virtual clock, task id) — ties broken
// by registration order, never by goroutine wakeup order. It returns the
// largest virtual completion time across tasks.
func (s *Scheduler) Run() int64 {
	var maxT int64
	for {
		var pick, next *Task // smallest and second-smallest (clock, id)
		live := false
		for _, t := range s.tasks {
			if t.done {
				continue
			}
			live = true
			if t.blocked {
				continue
			}
			if pick == nil || t.now < pick.now || (t.now == pick.now && t.seq < pick.seq) {
				next = pick
				pick = t
			} else if next == nil || t.now < next.now || (t.now == next.now && t.seq < next.seq) {
				next = t
			}
		}
		if pick == nil {
			if live {
				panic("sim: deadlock — every live task is blocked")
			}
			break
		}
		// Publish the runner-up threshold so the dispatched task can elide
		// yields it would win anyway. The channel send below establishes the
		// happens-before edge that makes these fields visible to it.
		s.running = pick
		if next != nil {
			s.nextNow, s.nextSeq = next.now, next.seq
		} else {
			s.nextNow, s.nextSeq = math.MaxInt64, math.MaxInt64
		}
		s.elideOK = true
		pick.resume <- struct{}{}
		back := <-s.yielded
		s.elideOK = false
		s.running = nil
		if back != pick {
			panic("sim: unexpected task yielded")
		}
		if pick.done && pick.now > maxT {
			maxT = pick.now
		}
	}
	return maxT
}

// Mutex is a virtual-time mutual-exclusion lock. Lock parks the task until
// the holder unlocks; the waiter's clock is advanced to the unlock time,
// so lock waits show up as real latency in the simulation.
//
// Mutex is dual-mode: scheduler tasks park virtually (the scheduler skips
// them until the holder wakes them), while solo tasks block for real on an
// internal condition variable, making the lock usable from concurrent
// server goroutines. A single Mutex must be driven either by one
// scheduler's tasks or by solo tasks, never a mix.
type Mutex struct {
	sm      sync.Mutex // guards held/waiters/unlockedAt; never held across Yield
	cond    *sync.Cond // lazily built; solo waiters block here
	held    bool
	waiters []*Task // parked scheduler tasks
	// unlockedAt is the virtual time of the latest unlock, used to advance
	// a solo waiter's clock so lock waits cost virtual time in solo mode
	// the same way scheduler-mode waits do.
	unlockedAt int64
}

// Lock acquires m for task t, blocking in virtual time while it is held.
// It yields before acquiring so tasks with earlier virtual clocks get to
// contend first — without this, a task that unlocks and immediately
// relocks would monopolize the mutex, since it never yields in between.
func (m *Mutex) Lock(t *Task) {
	t.Yield()
	m.sm.Lock()
	for m.held {
		if t.sched == nil {
			// Solo task: block for real until an Unlock broadcasts.
			if m.cond == nil {
				m.cond = sync.NewCond(&m.sm)
			}
			m.cond.Wait()
			continue
		}
		// Scheduler task: park virtually. The internal lock must be
		// dropped across Yield — the task that unlocks needs it.
		t.blocked = true
		m.waiters = append(m.waiters, t)
		m.sm.Unlock()
		t.Yield()
		m.sm.Lock()
	}
	m.held = true
	if t.sched == nil && m.unlockedAt > t.now {
		t.now = m.unlockedAt
	}
	m.sm.Unlock()
}

// Unlock releases m and wakes every waiter, advancing their clocks to the
// unlocking task's current time; they re-contend in virtual-clock order.
func (m *Mutex) Unlock(t *Task) {
	m.sm.Lock()
	if !m.held {
		m.sm.Unlock()
		panic("sim: unlock of free Mutex")
	}
	m.held = false
	if t.now > m.unlockedAt {
		m.unlockedAt = t.now
	}
	for _, w := range m.waiters {
		w.blocked = false
		w.AdvanceTo(t.now)
		// Only scheduler tasks park in waiters, and the unlocker is that
		// scheduler's running task, so this write is serialized with it.
		w.sched.noteRunnable()
	}
	m.waiters = m.waiters[:0]
	if m.cond != nil {
		m.cond.Broadcast()
	}
	m.sm.Unlock()
}

// Cond is a virtual-time condition variable tied to a Mutex, dual-mode
// like the Mutex itself. It is the primitive behind group commit: follower
// transactions Wait until the leader's sync Broadcasts durability.
type Cond struct {
	sm      sync.Mutex // guards waiters/gen/wakeAt; never held across Yield
	sc      *sync.Cond // lazily built; solo waiters block here
	waiters []*Task    // parked scheduler tasks
	gen     uint64     // bumped by Broadcast so solo waiters detect wakeups
	wakeAt  int64      // virtual time of the latest Broadcast
}

// Wait atomically releases mu and parks t until Broadcast, then reacquires
// mu before returning. The waiter's clock is advanced to the broadcaster's
// time, so the wait costs virtual time. As with every condition variable,
// callers must re-check their predicate in a loop.
func (c *Cond) Wait(t *Task, mu *Mutex) {
	if t.sched != nil {
		c.sm.Lock()
		c.waiters = append(c.waiters, t)
		c.sm.Unlock()
		t.blocked = true
		mu.Unlock(t)
		t.Yield()
		mu.Lock(t)
		return
	}
	c.sm.Lock()
	if c.sc == nil {
		c.sc = sync.NewCond(&c.sm)
	}
	gen := c.gen
	mu.Unlock(t)
	for gen == c.gen {
		c.sc.Wait()
	}
	if c.wakeAt > t.now {
		t.now = c.wakeAt
	}
	c.sm.Unlock()
	mu.Lock(t)
}

// Broadcast wakes every waiter, advancing each clock to t's current time.
// The associated Mutex should be held (waiters re-contend for it on wake).
func (c *Cond) Broadcast(t *Task) {
	c.sm.Lock()
	for _, w := range c.waiters {
		w.blocked = false
		w.AdvanceTo(t.now)
		// See Mutex.Unlock: waiters here are scheduler tasks, serialized
		// with the broadcasting task.
		w.sched.noteRunnable()
	}
	c.waiters = c.waiters[:0]
	if t.now > c.wakeAt {
		c.wakeAt = t.now
	}
	c.gen++
	if c.sc != nil {
		c.sc.Broadcast()
	}
	c.sm.Unlock()
}

// Resource is a single-server FIFO queue in virtual time, e.g. a storage
// device's command interface. Acquire returns the time at which service
// may begin for the calling task.
type Resource struct {
	name string
	mu   sync.Mutex // guards free/busy against concurrent solo submitters
	free int64      // earliest time the resource is idle
	busy int64      // accumulated busy time, for utilization reports
}

// NewResource returns an idle resource.
func NewResource(name string) *Resource { return &Resource{name: name} }

// Use schedules service of the given duration for task t. The task first
// yields at its arrival time so virtual-time arbitration happens in arrival
// order, then occupies the resource for service nanoseconds. On return both
// the task clock and the resource free-time point at the completion time.
// It returns the request latency (completion - arrival), which includes
// queueing delay.
func (r *Resource) Use(t *Task, service Duration) Duration {
	if service < 0 {
		panic(fmt.Sprintf("sim: negative service time %d on %s", service, r.name))
	}
	arrival := t.now
	t.Yield() // arbitrate by arrival time
	r.mu.Lock()
	start := arrival
	if r.free > start {
		start = r.free
	}
	done := start + service
	r.free = done
	r.busy += service
	r.mu.Unlock()
	t.AdvanceTo(done)
	return done - arrival
}

// ExtendCurrent adds extra service time to the request currently holding
// the resource. It is used for work discovered mid-service, such as a
// garbage-collection pass triggered by a write. The calling task must be
// the one that most recently completed Use; its clock is pushed to the new
// completion time.
func (r *Resource) ExtendCurrent(t *Task, extra Duration) {
	if extra < 0 {
		panic("sim: negative service extension")
	}
	r.mu.Lock()
	r.free += extra
	r.busy += extra
	free := r.free
	r.mu.Unlock()
	t.AdvanceTo(free)
}

// Clone returns an independent resource with the same schedule state
// (next-idle time and accumulated busy time), for replicating a device
// mid-simulation.
func (r *Resource) Clone(name string) *Resource {
	r.mu.Lock()
	defer r.mu.Unlock()
	return &Resource{name: name, free: r.free, busy: r.busy}
}

// Free returns the virtual time at which the resource next becomes idle.
func (r *Resource) Free() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.free
}

// BusyTime returns the total virtual time spent serving requests.
func (r *Resource) BusyTime() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.busy
}

// MultiResource is a k-server FIFO queue in virtual time: up to k requests
// are in service simultaneously (an NCQ-style device with internal
// parallelism). Each request still takes its full service time; only the
// waiting collapses.
type MultiResource struct {
	name string
	mu   sync.Mutex // guards free/busy/last against concurrent solo submitters
	free []int64    // per-server next-idle times
	busy int64
	last int // server picked by the most recent Use (ExtendCurrent target)
}

// NewMultiResource returns an idle k-server resource (k >= 1).
func NewMultiResource(name string, k int) *MultiResource {
	if k < 1 {
		k = 1
	}
	return &MultiResource{name: name, free: make([]int64, k)}
}

// Use schedules service on the earliest-free server, like Resource.Use.
// Ties between equally idle servers deterministically pick the lowest
// server index (the strict < below never replaces an equal candidate), so
// identically-seeded runs assign requests to identical servers.
func (m *MultiResource) Use(t *Task, service Duration) Duration {
	if service < 0 {
		panic(fmt.Sprintf("sim: negative service time %d on %s", service, m.name))
	}
	arrival := t.now
	t.Yield()
	m.mu.Lock()
	best := 0
	for i := 1; i < len(m.free); i++ {
		if m.free[i] < m.free[best] {
			best = i
		}
	}
	start := arrival
	if m.free[best] > start {
		start = m.free[best]
	}
	done := start + service
	m.free[best] = done
	m.busy += service
	m.last = best
	m.mu.Unlock()
	t.AdvanceTo(done)
	return done - arrival
}

// ExtendCurrent adds extra service time to the request that most recently
// completed Use — parity with Resource.ExtendCurrent for work discovered
// mid-service. The calling task must be the one that issued that Use; its
// clock is pushed to the server's new completion time.
func (m *MultiResource) ExtendCurrent(t *Task, extra Duration) {
	if extra < 0 {
		panic("sim: negative service extension")
	}
	m.mu.Lock()
	m.free[m.last] += extra
	m.busy += extra
	free := m.free[m.last]
	m.mu.Unlock()
	t.AdvanceTo(free)
}

// Clone returns an independent k-server resource with the same schedule
// state, for replicating a device mid-simulation.
func (m *MultiResource) Clone(name string) *MultiResource {
	m.mu.Lock()
	defer m.mu.Unlock()
	return &MultiResource{
		name: name,
		free: append([]int64(nil), m.free...),
		busy: m.busy,
		last: m.last,
	}
}

// FreeTimes returns a copy of each server's next-idle time, for tests and
// utilization diagnostics.
func (m *MultiResource) FreeTimes() []int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]int64, len(m.free))
	copy(out, m.free)
	return out
}

// BusyTime returns total service time across all servers.
func (m *MultiResource) BusyTime() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.busy
}

// Servers returns the parallelism degree.
func (m *MultiResource) Servers() int { return len(m.free) }
