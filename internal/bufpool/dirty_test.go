package bufpool

import (
	"errors"
	"math/rand"
	"testing"

	"share/internal/sim"
)

// recount is the reference DirtyCount: a walk over every frame.
func recount(p *Pool) int {
	n := 0
	for _, f := range p.frames {
		if f.dirty {
			n++
		}
	}
	return n
}

// failingFlusher wraps a flusher and fails every batch while fail is set.
type failingFlusher struct {
	inner Flusher
	fail  bool
}

var errFlush = errors.New("flush failed")

func (f *failingFlusher) FlushBatch(t *sim.Task, pages []PageImage) error {
	if f.fail {
		return errFlush
	}
	return f.inner.FlushBatch(t, pages)
}

// TestDirtyCountMatchesRecount drives a seeded random mix of pins, repeat
// MarkDirty calls, releases, partial flushes around no-steal page pins,
// checkpoints, CleanAll and Drop over more pages than the pool holds (so
// misses evict and force flushes), and checks after every step that the
// O(1) counter equals a recount over the frames.
func TestDirtyCountMatchesRecount(t *testing.T) {
	const pages = 24
	pool, _, task := testPool(t, 6)
	rng := rand.New(rand.NewSource(7))
	var pinned []uint32
	var held []*Frame
	releaseAll := func() {
		for _, f := range held {
			f.Release()
		}
		held = held[:0]
	}
	for step := 0; step < 5000; step++ {
		switch op := rng.Intn(20); {
		case op < 6: // Get or GetFresh, keeping at most 3 pins
			if len(held) >= 3 {
				releaseAll()
			}
			pageNo := uint32(rng.Intn(pages))
			get := pool.Get
			if op == 0 {
				get = pool.GetFresh
			}
			f, err := get(task, pageNo)
			if err != nil {
				t.Fatalf("step %d: get %d: %v", step, pageNo, err)
			}
			held = append(held, f)
		case op < 11: // MarkDirty, often on an already dirty frame
			if len(held) > 0 {
				f := held[rng.Intn(len(held))]
				f.Data[0]++
				f.MarkDirty()
				if op < 8 {
					f.MarkDirty()
				}
			}
		case op < 14:
			if len(held) > 0 {
				i := rng.Intn(len(held))
				held[i].Release()
				held = append(held[:i], held[i+1:]...)
			}
		case op < 16:
			pool.UnpinPages(pinned)
			pinned = pinned[:0]
			for i := 0; i < 3; i++ {
				pinned = append(pinned, uint32(rng.Intn(pages)))
			}
			pool.PinPages(pinned)
			if err := pool.FlushSome(task, 1+rng.Intn(4)); err != nil {
				t.Fatalf("step %d: FlushSome: %v", step, err)
			}
		case op == 16:
			if err := pool.FlushAll(task); err != nil {
				t.Fatalf("step %d: FlushAll: %v", step, err)
			}
		case op == 17:
			pool.CleanAll()
		case op == 18 && rng.Intn(8) == 0:
			releaseAll() // frames obtained before Drop are dead
			pool.Drop()
		}
		if got, want := pool.DirtyCount(), recount(pool); got != want {
			t.Fatalf("step %d: DirtyCount = %d, recount = %d", step, got, want)
		}
	}
	if st := pool.Stats(); st.Evictions == 0 || st.FlushedPages == 0 {
		t.Fatalf("run never evicted or flushed: %+v", st)
	}
}

// TestDirtyCountUnchangedOnFlushError: a failed FlushBatch leaves every
// frame dirty, so neither a partial flush, a checkpoint nor an eviction
// that needed a flush may move the count.
func TestDirtyCountUnchangedOnFlushError(t *testing.T) {
	pool, fl, task := testPool(t, 4)
	ff := &failingFlusher{inner: fl}
	pool.flusher = ff
	for i := uint32(0); i < 4; i++ {
		f, err := pool.Get(task, i)
		if err != nil {
			t.Fatal(err)
		}
		f.MarkDirty()
		f.Release()
	}
	ff.fail = true
	if err := pool.FlushSome(task, 2); !errors.Is(err, errFlush) {
		t.Fatalf("FlushSome = %v, want the flush error", err)
	}
	if err := pool.FlushAll(task); !errors.Is(err, errFlush) {
		t.Fatalf("FlushAll = %v, want the flush error", err)
	}
	if _, err := pool.Get(task, 9); !errors.Is(err, errFlush) {
		t.Fatalf("evicting Get = %v, want the flush error", err)
	}
	if got := pool.DirtyCount(); got != 4 || recount(pool) != 4 {
		t.Fatalf("DirtyCount = %d (recount %d) after failed flushes, want 4", got, recount(pool))
	}
	ff.fail = false
	if err := pool.FlushSome(task, 2); err != nil {
		t.Fatal(err)
	}
	if got := pool.DirtyCount(); got != 2 || recount(pool) != 2 {
		t.Fatalf("DirtyCount = %d (recount %d) after a 2-page flush, want 2", got, recount(pool))
	}
}

// TestHitPathZeroAlloc: a resident page's Get + MarkDirty + Release +
// DirtyCount — the per-row cost of every engine commit — allocates
// nothing.
func TestHitPathZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector's shadow allocations break AllocsPerRun")
	}
	pool, _, task := testPool(t, 8)
	for i := uint32(0); i < 8; i++ {
		f, err := pool.Get(task, i)
		if err != nil {
			t.Fatal(err)
		}
		f.Release()
	}
	n := uint32(0)
	avg := testing.AllocsPerRun(1000, func() {
		f, err := pool.Get(task, n%8)
		if err != nil {
			t.Fatal(err)
		}
		f.MarkDirty()
		f.Release()
		_ = pool.DirtyCount()
		n++
	})
	if avg != 0 {
		t.Fatalf("hit path allocates %.3f objects/op, want 0", avg)
	}
}
