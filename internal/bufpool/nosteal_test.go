package bufpool

import (
	"slices"
	"sync"
	"testing"

	"share/internal/sim"
)

// dirtyPage marks pageNo dirty through a Get/MarkDirty/Release round.
func dirtyPage(t *testing.T, pool *Pool, task *sim.Task, pageNo uint32) {
	t.Helper()
	f, err := pool.Get(task, pageNo)
	if err != nil {
		t.Fatalf("get %d: %v", pageNo, err)
	}
	f.MarkDirty()
	f.Release()
}

// TestTxnPagesNotStolen: pages marked dirty between BeginTxn and EndTxn
// are skipped by FlushSome and by eviction, and TxnPages returns them in
// ascending order; a page dirtied before the transaction stays flushable.
func TestTxnPagesNotStolen(t *testing.T) {
	pool, fl, task := testPool(t, 4)
	dirtyPage(t, pool, task, 1)
	pool.BeginTxn()
	for _, p := range []uint32{7, 3, 5, 3} {
		dirtyPage(t, pool, task, p)
	}
	if got := pool.TxnPages(nil); !slices.Equal(got, []uint32{3, 5, 7}) {
		t.Fatalf("TxnPages = %v, want [3 5 7]", got)
	}
	if err := pool.FlushSome(task, 8); err != nil {
		t.Fatal(err)
	}
	if fl.pages != 1 {
		t.Fatalf("FlushSome wrote %d pages, want only page 1 (dirtied before the transaction)", fl.pages)
	}
	// Page 9's miss evicts the clean page 1; then every frame is a dirty
	// page of the open transaction, so the next miss finds no victim.
	dirtyPage(t, pool, task, 9)
	if _, err := pool.Get(task, 10); err == nil {
		t.Fatal("a miss evicted a page of the open transaction")
	}
	if fl.pages != 1 {
		t.Fatalf("eviction flushed %d transaction pages", fl.pages-1)
	}
	if got := pool.TxnPages([]uint32{42}); !slices.Equal(got, []uint32{42, 3, 5, 7, 9}) {
		t.Fatalf("TxnPages([42]) = %v, want [42 3 5 7 9]", got)
	}
	pool.EndTxn()
	if got := pool.TxnPages(nil); len(got) != 0 {
		t.Fatalf("TxnPages after EndTxn = %v, want empty", got)
	}
	f, err := pool.Get(task, 10)
	if err != nil {
		t.Fatalf("miss after EndTxn: %v", err)
	}
	f.Release()
	if fl.pages < 2 {
		t.Fatal("eviction after EndTxn flushed nothing")
	}
}

// TestPinnedPagesNotStolen: a page pinned by two owners stays unflushable
// until both unpin, while FlushAll — the checkpoint — still writes pinned
// and open-transaction pages.
func TestPinnedPagesNotStolen(t *testing.T) {
	pool, fl, task := testPool(t, 4)
	dirtyPage(t, pool, task, 2)
	pool.PinPages([]uint32{2})
	pool.PinPages([]uint32{2, 3})
	for i, unpin := range [][]uint32{nil, {2}, {2, 3}} {
		pool.UnpinPages(unpin)
		if err := pool.FlushSome(task, 8); err != nil {
			t.Fatal(err)
		}
		if want := i / 2; fl.pages != want {
			t.Fatalf("after unpinning %v: FlushSome wrote %d pages, want %d", unpin, fl.pages, want)
		}
	}

	dirtyPage(t, pool, task, 4)
	pool.PinPages([]uint32{4})
	pool.BeginTxn()
	dirtyPage(t, pool, task, 5)
	if err := pool.FlushAll(task); err != nil {
		t.Fatal(err)
	}
	if fl.pages != 3 || pool.DirtyCount() != 0 {
		t.Fatalf("FlushAll wrote %d pages in total (want 3), %d left dirty", fl.pages, pool.DirtyCount())
	}
	pool.EndTxn()
	pool.UnpinPages([]uint32{4})
}

// TestPinsFromManyGoroutines: commits pin and unpin without the engine
// latch while the latch holder flushes; the pin set needs its own lock.
func TestPinsFromManyGoroutines(t *testing.T) {
	pool, _, task := testPool(t, 8)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pages := []uint32{uint32(g), uint32(g + 1)}
			for i := 0; i < 200; i++ {
				pool.PinPages(pages)
				pool.UnpinPages(pages)
			}
		}()
	}
	for i := 0; i < 200; i++ {
		dirtyPage(t, pool, task, uint32(i%8))
		if err := pool.FlushSome(task, 2); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	if err := pool.FlushSome(task, 8); err != nil {
		t.Fatal(err)
	}
	if n := pool.DirtyCount(); n != 0 {
		t.Fatalf("%d pages still unflushable after every pin was dropped", n)
	}
}
