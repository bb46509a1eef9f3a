// Zero-copy file duplication through the file system's SHARE ioctl: the
// "file copy operations that can occur almost without copying data" case
// from §1 of the paper (the same idea as reflinks/cp --reflink, pushed
// down into the FTL).
package main

import (
	"bytes"
	"fmt"
	"log"
	"math/rand"

	"share"
	"share/internal/fsim"
)

func main() {
	dev, err := share.OpenDevice(share.DeviceOptions{Blocks: 1024})
	if err != nil {
		log.Fatal(err)
	}
	t := share.NewTask("cp")
	fs, err := fsim.Format(t, dev, 64)
	if err != nil {
		log.Fatal(err)
	}

	// Create a ~10 MiB file.
	src, err := fs.Create(t, "big.dat")
	if err != nil {
		log.Fatal(err)
	}
	data := make([]byte, 10<<20)
	rand.New(rand.NewSource(1)).Read(data)
	if _, err := src.WriteAt(t, data, 0); err != nil {
		log.Fatal(err)
	}
	if err := src.Sync(t); err != nil {
		log.Fatal(err)
	}

	before := dev.Stats()
	beforeTime := t.Now()
	dst, err := fs.Copy(t, "big.copy", "big.dat")
	if err != nil {
		log.Fatal(err)
	}
	after := dev.Stats()

	fmt.Printf("copied %d MiB with %d data-page writes and %d SHARE pairs in %.2f virtual ms\n",
		dst.Size()>>20,
		after.FTL.HostWrites-before.FTL.HostWrites,
		after.FTL.SharePairs-before.FTL.SharePairs,
		float64(t.Now()-beforeTime)/1e6)

	if n := after.FTL.HostWrites - before.FTL.HostWrites; n != 0 {
		log.Fatalf("zero-copy copy wrote %d data pages", n)
	}

	// Verify, then prove the copies are independent: overwriting the
	// original must not change the copy (copy-on-write at the FTL).
	got := make([]byte, len(data))
	if _, err := dst.ReadAt(t, got, 0); err != nil {
		log.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		log.Fatal("copy differs from original")
	}
	if _, err := src.WriteAt(t, []byte("scribble"), 0); err != nil {
		log.Fatal(err)
	}
	if _, err := dst.ReadAt(t, got[:8], 0); err != nil {
		log.Fatal(err)
	}
	if string(got[:8]) == "scribble" {
		log.Fatal("copy aliased the original")
	}
	fmt.Println("copy verified and independent of the original")
}
