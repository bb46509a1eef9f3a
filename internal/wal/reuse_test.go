package wal

import (
	"bytes"
	"encoding/binary"
	"testing"

	"share/internal/sim"
)

// checkTailZero reads every slot written so far straight from the device
// and fails if any byte past a page's used count is non-zero — stale
// stream bytes left in the reused emit page would show up here.
func checkTailZero(t *testing.T, l *Log, task *sim.Task, when string) {
	t.Helper()
	dev := l.dev
	buf := make([]byte, l.pageSize)
	for slot := uint32(0); slot <= l.head.Load() && slot < l.pages; slot++ {
		if err := dev.ReadPage(task, l.start+slot, buf); err != nil {
			t.Fatal(err)
		}
		if binary.LittleEndian.Uint32(buf[0:]) != pageMagic {
			continue // slot not written yet
		}
		used := int(binary.LittleEndian.Uint32(buf[12:]))
		for i, b := range buf[pageHdr+used:] {
			if b != 0 {
				t.Fatalf("%s: slot %d (used %d) has byte %#x at offset %d past used", when, slot, used, b, pageHdr+used+i)
			}
		}
	}
}

// TestReusedEmitPageZeroPastUsed: a full page of non-zero bytes leaves the
// reused emit page dirty; the partial tail synced next is shorter, then
// grows across two more syncs until it fills and spills. Every programmed
// page must still read zero past its used count, and replay must return
// exactly the appended records.
func TestReusedEmitPageZeroPastUsed(t *testing.T) {
	l, _, task := testLog(t, 16)
	var want [][]byte
	app := func(rec []byte) {
		t.Helper()
		if _, err := l.Append(task, rec); err != nil {
			t.Fatal(err)
		}
		want = append(want, rec)
	}
	sync := func(when string) {
		t.Helper()
		if err := l.Sync(task); err != nil {
			t.Fatal(err)
		}
		checkTailZero(t, l, task, when)
	}
	app(bytes.Repeat([]byte{0xEE}, 1000)) // two full pages, 12-byte tail
	sync("short tail after full pages")
	app([]byte("ab"))
	sync("longer tail")
	app(bytes.Repeat([]byte{0x5A}, 300))
	sync("longer tail again")
	app(bytes.Repeat([]byte{0xC3}, 400)) // fills the tail slot and spills
	sync("after spill")

	got, err := l.ReadAll(task)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("read %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("record %d mismatch", i)
		}
	}
}

// TestAppendSteadyStateZeroAlloc: once the pending buffer has grown and
// the device's page buffers recycle, appending a sub-page record —
// including the page emits it triggers — allocates nothing. AllocsPerRun
// truncates its average to an integer, so each run appends more than a
// page of records and a per-emit allocation shows as at least 1.
func TestAppendSteadyStateZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector's shadow allocations break AllocsPerRun")
	}
	l, _, task := testLog(t, 64)
	rec := bytes.Repeat([]byte{0x42}, 40)
	appendOne := func() {
		if l.Remaining() < 2 {
			if err := l.Truncate(task); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := l.Append(task, rec); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 20000; i++ { // cycle the ring until device buffers recycle
		appendOne()
	}
	perPage := l.capacityPerPage()/(recHdr+len(rec)) + 1
	avg := testing.AllocsPerRun(500, func() {
		for i := 0; i < perPage; i++ {
			appendOne()
		}
	})
	if avg != 0 {
		t.Fatalf("steady-state Append allocates %.0f objects per %d records, want 0", avg, perPage)
	}
}
