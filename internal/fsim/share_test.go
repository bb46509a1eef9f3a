package fsim

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"share/internal/sim"
	"share/internal/ssd"
)

// shareRange remaps one file range the way every engine does: translate
// with AppendSharePairs, then issue with Share.
func shareRange(task *sim.Task, fs *FS, dst *File, dstOff int64, src *File, srcOff, length int64) error {
	pairs, err := AppendSharePairs(nil, dst, dstOff, src, srcOff, length)
	if err != nil {
		return err
	}
	return fs.Share(task, pairs)
}

// splitLayout writes two 8-page files with distinct page contents: frag,
// whose allocation splits after its fourth page (a spacer file takes the
// pages in between), and flat, allocated as one extent.
func splitLayout(t *testing.T, fs *FS, task *sim.Task) (frag, flat *File) {
	t.Helper()
	frag, _ = fs.Create(task, "frag")
	spacer, _ := fs.Create(task, "spacer")
	flat, _ = fs.Create(task, "flat")
	page := func(f *File, i int, fill byte) {
		if _, err := f.WriteAt(task, bytes.Repeat([]byte{fill}, 512), int64(i)*512); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		page(frag, i, byte(0x10+i))
		page(spacer, i, 0xEE)
	}
	for i := 4; i < 8; i++ {
		page(frag, i, byte(0x10+i))
	}
	for i := 0; i < 8; i++ {
		page(flat, i, byte(0x80+i))
	}
	if n := len(frag.Extents()); n != 2 {
		t.Fatalf("frag has %d extents, want 2", n)
	}
	if n := len(flat.Extents()); n != 1 {
		t.Fatalf("flat has %d extents, want 1", n)
	}
	return frag, flat
}

func TestAppendSharePairs(t *testing.T) {
	type call struct {
		dst, src     string // "frag" or "flat"
		dstPg, srcPg int64
		pages        int64
	}
	// Each expected pair is written as extent-relative coordinates and
	// resolved against the layout the allocator produced, so the table
	// pins the zip rule rather than absolute LPNs.
	type at struct {
		file string
		ext  int
		off  uint32
	}
	type want struct {
		dst, src at
		n        uint32
	}
	cases := []struct {
		name  string
		calls []call
		want  []want
	}{
		{
			// One dst extent must still become two pairs; a zip that
			// indexes src by dst's extent index gets this wrong.
			name:  "dst contiguous, src splits mid-range",
			calls: []call{{dst: "flat", src: "frag", pages: 8}},
			want: []want{
				{at{"flat", 0, 0}, at{"frag", 0, 0}, 4},
				{at{"flat", 0, 4}, at{"frag", 1, 0}, 4},
			},
		},
		{
			name:  "src contiguous, dst splits mid-range",
			calls: []call{{dst: "frag", src: "flat", pages: 8}},
			want: []want{
				{at{"frag", 0, 0}, at{"flat", 0, 0}, 4},
				{at{"frag", 1, 0}, at{"flat", 0, 4}, 4},
			},
		},
		{
			name:  "offset ranges straddling the split",
			calls: []call{{dst: "flat", src: "frag", dstPg: 2, srcPg: 2, pages: 4}},
			want: []want{
				{at{"flat", 0, 2}, at{"frag", 0, 2}, 2},
				{at{"flat", 0, 4}, at{"frag", 1, 0}, 2},
			},
		},
		{
			// couch applyShares: old and new document copies in one file.
			name:  "same-file disjoint ranges",
			calls: []call{{dst: "flat", src: "flat", dstPg: 0, srcPg: 4, pages: 4}},
			want:  []want{{at{"flat", 0, 0}, at{"flat", 0, 4}, 4}},
		},
		{
			// Adjacent ranges from separate calls stay separate pairs.
			name: "no coalescing across calls",
			calls: []call{
				{dst: "flat", src: "flat", dstPg: 0, srcPg: 4, pages: 2},
				{dst: "flat", src: "flat", dstPg: 2, srcPg: 6, pages: 2},
			},
			want: []want{
				{at{"flat", 0, 0}, at{"flat", 0, 4}, 2},
				{at{"flat", 0, 2}, at{"flat", 0, 6}, 2},
			},
		},
		{
			name:  "zero length",
			calls: []call{{dst: "flat", src: "frag", pages: 0}},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fs, _, task := testFS(t, 64)
			frag, flat := splitLayout(t, fs, task)
			files := map[string]*File{"frag": frag, "flat": flat}
			lpn := func(a at) uint32 { return files[a.file].Extents()[a.ext].Start + a.off }

			var pairs []ssd.Pair
			for _, c := range tc.calls {
				var err error
				pairs, err = AppendSharePairs(pairs, files[c.dst], c.dstPg*512, files[c.src], c.srcPg*512, c.pages*512)
				if err != nil {
					t.Fatal(err)
				}
			}
			var exp []ssd.Pair
			for _, w := range tc.want {
				exp = append(exp, ssd.Pair{Dst: lpn(w.dst), Src: lpn(w.src), Len: w.n})
			}
			if !reflect.DeepEqual(pairs, exp) {
				t.Fatalf("pairs = %+v, want %+v", pairs, exp)
			}

			// Issuing the pairs makes every dst range read back its src.
			var before [][]byte
			for _, c := range tc.calls {
				b := make([]byte, c.pages*512)
				if _, err := files[c.src].ReadAt(task, b, c.srcPg*512); err != nil {
					t.Fatal(err)
				}
				before = append(before, b)
			}
			if err := fs.Share(task, pairs); err != nil {
				t.Fatal(err)
			}
			for i, c := range tc.calls {
				got := make([]byte, c.pages*512)
				if _, err := files[c.dst].ReadAt(task, got, c.dstPg*512); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, before[i]) {
					t.Fatalf("call %d: dst range does not read back src", i)
				}
			}
		})
	}
}

func TestAppendSharePairsRejectsUnaligned(t *testing.T) {
	fs, _, task := testFS(t, 64)
	frag, flat := splitLayout(t, fs, task)
	for _, c := range []struct{ dstOff, srcOff, length int64 }{
		{1, 0, 512},
		{0, 100, 512},
		{0, 0, 700},
		{3, 0, 0},
	} {
		pairs, err := AppendSharePairs(nil, flat, c.dstOff, frag, c.srcOff, c.length)
		if !errors.Is(err, ErrAlign) {
			t.Fatalf("%+v: err = %v, want ErrAlign", c, err)
		}
		if len(pairs) != 0 {
			t.Fatalf("%+v: appended %d pairs on error", c, len(pairs))
		}
	}
}

// stagedFiles returns a file of n home pages written with old content and
// an n-page stage area holding the new versions (page i filled with
// newFill+i), plus the pairs that install the stage at home.
func stagedFiles(t *testing.T, fs *FS, task *sim.Task, n int, oldFill, newFill byte) (home *File, pairs []ssd.Pair) {
	t.Helper()
	home, _ = fs.Create(task, "home")
	stage, _ := fs.Create(task, "stage")
	for i := 0; i < n; i++ {
		if _, err := home.WriteAt(task, bytes.Repeat([]byte{oldFill}, 512), int64(i)*512); err != nil {
			t.Fatal(err)
		}
		if _, err := stage.WriteAt(task, bytes.Repeat([]byte{newFill + byte(i)}, 512), int64(i)*512); err != nil {
			t.Fatal(err)
		}
	}
	// One call per page, as the engines stage: single-page pairs.
	for i := 0; i < n; i++ {
		var err error
		if pairs, err = AppendSharePairs(pairs, home, int64(i)*512, stage, int64(i)*512, 512); err != nil {
			t.Fatal(err)
		}
	}
	if err := stage.Sync(task); err != nil {
		t.Fatal(err)
	}
	return home, pairs
}

func checkPages(t *testing.T, task *sim.Task, f *File, n int, want func(i int) byte) {
	t.Helper()
	got := make([]byte, 512)
	for i := 0; i < n; i++ {
		if _, err := f.ReadAt(task, got, int64(i)*512); err != nil {
			t.Fatal(err)
		}
		if got[0] != want(i) {
			t.Fatalf("page %d = %x, want %x", i, got[0], want(i))
		}
	}
}

func TestShareSplitsBatches(t *testing.T) {
	fs, dev, task := testFS(t, 128)
	n := dev.MaxShareBatch()*2 + 7
	home, pairs := stagedFiles(t, fs, task, n, 0x01, 0x40)
	if len(pairs) != n {
		t.Fatalf("%d pairs for %d single-page ranges", len(pairs), n)
	}
	before := dev.Stats().FTL.Shares
	if err := fs.Share(task, pairs); err != nil {
		t.Fatal(err)
	}
	checkPages(t, task, home, n, func(i int) byte { return 0x40 + byte(i) })
	if cmds := dev.Stats().FTL.Shares - before; cmds < 3 {
		t.Fatalf("expected >= 3 commands, got %d", cmds)
	}
}

func TestShareOversizedRangedPair(t *testing.T) {
	fs, dev, task := testFS(t, 256)
	n := dev.MaxShareBatch() + 10
	src, _ := fs.Create(task, "src")
	for i := 0; i < n; i++ {
		if _, err := src.WriteAt(task, bytes.Repeat([]byte{byte(i)}, 512), int64(i)*512); err != nil {
			t.Fatal(err)
		}
	}
	dst, _ := fs.Create(task, "dst")
	if err := dst.Allocate(task, 0, int64(n)*512); err != nil {
		t.Fatal(err)
	}
	pairs, err := AppendSharePairs(nil, dst, 0, src, 0, int64(n)*512)
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 1 || int(pairs[0].Len) != n {
		t.Fatalf("want one %d-page pair, got %+v", n, pairs)
	}
	before := dev.Stats().FTL.Shares
	if err := fs.Share(task, pairs); err != nil {
		t.Fatal(err)
	}
	if cmds := dev.Stats().FTL.Shares - before; cmds != 2 {
		t.Fatalf("oversized pair issued as %d commands, want 2", cmds)
	}
	checkPages(t, task, dst, n, func(i int) byte { return byte(i) })
}

func TestShareRejectsZeroLen(t *testing.T) {
	fs, _, task := testFS(t, 128)
	if err := fs.Share(task, []ssd.Pair{{Dst: 0, Src: 1, Len: 0}}); err == nil {
		t.Fatal("zero-length pair accepted")
	}
}

// TestShareCommitsStagedPages is the journal-free atomic commit every
// engine's SHARE mode reduces to: stage new versions, sync, remap homes.
func TestShareCommitsStagedPages(t *testing.T) {
	fs, _, task := testFS(t, 128)
	home, pairs := stagedFiles(t, fs, task, 4, 0x10, 0x20)
	// Homes unchanged until the remap.
	checkPages(t, task, home, 4, func(int) byte { return 0x10 })
	if err := fs.Share(task, pairs); err != nil {
		t.Fatal(err)
	}
	checkPages(t, task, home, 4, func(i int) byte { return 0x20 + byte(i) })
}

func TestShareCommitSurvivesCrash(t *testing.T) {
	fs, dev, task := testFS(t, 128)
	home, pairs := stagedFiles(t, fs, task, 3, 1, 2)
	if err := fs.Share(task, pairs); err != nil {
		t.Fatal(err)
	}
	fs2 := crashMount(t, dev, task)
	home2, err := fs2.Open(task, home.Name())
	if err != nil {
		t.Fatal(err)
	}
	checkPages(t, task, home2, 3, func(i int) byte { return 2 + byte(i) })
}

func TestCopyZeroCopy(t *testing.T) {
	fs, dev, task := testFS(t, 256)
	src, _ := fs.Create(task, "orig")
	data := bytes.Repeat([]byte{0xE7}, 40*512+100) // partial tail page
	if _, err := src.WriteAt(task, data, 0); err != nil {
		t.Fatal(err)
	}
	before := dev.Stats().FTL.HostWrites
	dst, err := fs.Copy(task, "dup", "orig")
	if err != nil {
		t.Fatal(err)
	}
	writes := dev.Stats().FTL.HostWrites - before
	if writes > 3 {
		t.Fatalf("copy wrote %d pages; want <= 3 (tail only)", writes)
	}
	if dst.Size() != int64(len(data)) {
		t.Fatalf("size = %d", dst.Size())
	}
	got := make([]byte, len(data))
	if _, err := dst.ReadAt(task, got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("copy content mismatch")
	}
}
