// Atomic multi-page commit without a journal: the SQLite scenario from
// §3.3 of the paper. A transaction stages new versions of several pages
// in a shadow area, then one batched SHARE command installs all of them
// at their home locations atomically — no rollback journal, no write-ahead
// log, no second write of the data.
//
// The example commits a "bank transfer" touching three pages and crashes
// the device at the worst possible moments to show all-or-nothing
// behaviour. Three pages fit one SHARE command, and one command is atomic,
// so the protocol is just WritePage (stage), Flush, Share.
package main

import (
	"encoding/binary"
	"fmt"
	"log"

	"share"
)

const (
	accounts = 8    // one account balance per page, pages 0..7
	scratch  = 2000 // shadow area the transaction stages into
)

func balance(dev *share.Device, t *share.Task, page uint32) uint64 {
	buf := make([]byte, dev.PageSize())
	if err := dev.ReadPage(t, page, buf); err != nil {
		log.Fatal(err)
	}
	return binary.LittleEndian.Uint64(buf)
}

func setBalance(buf []byte, v uint64) { binary.LittleEndian.PutUint64(buf, v) }

func total(dev *share.Device, t *share.Task) uint64 {
	var sum uint64
	for p := uint32(0); p < accounts; p++ {
		sum += balance(dev, t, p)
	}
	return sum
}

// expect exits non-zero unless accounts 0..2 hold exactly want.
func expect(dev *share.Device, t *share.Task, want ...uint64) {
	for p, w := range want {
		if got := balance(dev, t, uint32(p)); got != w {
			log.Fatalf("account %d holds %d, want %d: the commit was not atomic", p, got, w)
		}
	}
}

func main() {
	dev, err := share.OpenDevice(share.DeviceOptions{Blocks: 256})
	if err != nil {
		log.Fatal(err)
	}
	t := share.NewTask("bank")

	// Initialize accounts with 100 units each and make them durable.
	buf := make([]byte, dev.PageSize())
	for p := uint32(0); p < accounts; p++ {
		setBalance(buf, 100)
		if err := dev.WritePage(t, p, buf); err != nil {
			log.Fatal(err)
		}
	}
	if err := dev.Flush(t); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("initial total: %d\n", total(dev, t))

	// Transaction 1: move 30 units from account 0 to accounts 1 and 2 —
	// three pages must change together. Each new version is written to
	// the scratch area and its home remap recorded; nothing is visible at
	// home yet. Stage, then crash BEFORE commit.
	var pairs []share.Pair
	stage := func(page uint32, v uint64) {
		setBalance(buf, v)
		lpn := scratch + uint32(len(pairs))
		if err := dev.WritePage(t, lpn, buf); err != nil {
			log.Fatal(err)
		}
		pairs = append(pairs, share.Pair{Dst: page, Src: lpn, Len: 1})
	}
	stage(0, 70)
	stage(1, 115)
	stage(2, 115)
	fmt.Println("crash before commit...")
	dev.Crash()
	if err := dev.Recover(t); err != nil {
		log.Fatal(err)
	}
	pairs = pairs[:0] // abort: the staged copies are simply forgotten
	fmt.Printf("after recovery: balances %d/%d/%d, total %d (transaction invisible)\n",
		balance(dev, t, 0), balance(dev, t, 1), balance(dev, t, 2), total(dev, t))
	expect(dev, t, 100, 100, 100)

	// Transaction 2: same transfer, committed this time; crash right after.
	stage(0, 70)
	stage(1, 115)
	stage(2, 115)
	// Commit: persist the shadow writes, then one SHARE command remaps
	// all three homes at once.
	if err := dev.Flush(t); err != nil {
		log.Fatal(err)
	}
	if err := dev.Share(t, pairs); err != nil {
		log.Fatal(err)
	}
	fmt.Println("crash after commit...")
	dev.Crash()
	if err := dev.Recover(t); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after recovery: balances %d/%d/%d, total %d (all three pages installed)\n",
		balance(dev, t, 0), balance(dev, t, 1), balance(dev, t, 2), total(dev, t))
	expect(dev, t, 70, 115, 115)

	if total(dev, t) != accounts*100 {
		log.Fatal("money was created or destroyed!")
	}
	fmt.Println("invariant held: atomic commit with zero journal writes")
}
