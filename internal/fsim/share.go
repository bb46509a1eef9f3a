package fsim

import (
	"fmt"

	"share/internal/sim"
	"share/internal/ssd"
)

// AppendSharePairs translates one file-range remap — "length bytes of dst
// at dstOff should now hold what src holds at srcOff" — into device SHARE
// pairs and appends them to pairs. Both ranges are resolved through their
// files' extent maps (MapRange, so physically contiguous extents coalesce)
// and zipped: a pair ends wherever either side's extent ends. Pairs from
// separate calls are never merged. Offsets and length must be page
// aligned (ErrAlign otherwise), both ranges must already be allocated,
// and a zero length appends nothing.
//
// Like MapRange it reads the extent maps without the FS latch: callers
// own both files for the duration, as every engine does for its own
// files. Issue the accumulated pairs with Share.
func AppendSharePairs(pairs []ssd.Pair, dst *File, dstOff int64, src *File, srcOff int64, length int64) ([]ssd.Pair, error) {
	de, err := dst.MapRange(dstOff, length)
	if err != nil {
		return pairs, fmt.Errorf("fsim: share dst: %w", err)
	}
	se, err := src.MapRange(srcOff, length)
	if err != nil {
		return pairs, fmt.Errorf("fsim: share src: %w", err)
	}
	var dOff, sOff uint32
	for len(de) > 0 && len(se) > 0 {
		run := min(de[0].Len-dOff, se[0].Len-sOff)
		pairs = append(pairs, ssd.Pair{Dst: de[0].Start + dOff, Src: se[0].Start + sOff, Len: run})
		dOff += run
		sOff += run
		if dOff == de[0].Len {
			de, dOff = de[1:], 0
		}
		if sOff == se[0].Len {
			se, sOff = se[1:], 0
		}
	}
	return pairs, nil
}

// Share is the SHARE ioctl: it issues pairs to the device as SHARE
// commands no wider than the device's atomic batch limit. Pairs are
// packed in order; a pair that does not fit the open batch flushes it
// first, and only a single pair wider than the limit is itself split
// across commands. Each issued command is atomic on its own, exactly like
// the prototype's vendor-unique SATA command; the sequence is not, so a
// caller needing all-or-nothing across more than one batch must keep its
// source copy valid until Share returns (the doublewrite integration
// does exactly that).
func (fs *FS) Share(t *sim.Task, pairs []ssd.Pair) error {
	max := fs.dev.MaxShareBatch()
	start, units := 0, 0
	flush := func(end int) error {
		if start == end {
			return nil
		}
		err := fs.dev.Share(t, pairs[start:end])
		start, units = end, 0
		return err
	}
	for i, p := range pairs {
		if p.Len == 0 {
			return fmt.Errorf("fsim: zero-length share pair")
		}
		if int(p.Len) > max {
			if err := flush(i); err != nil {
				return err
			}
			for off := uint32(0); off < p.Len; off += uint32(max) {
				n := min(p.Len-off, uint32(max))
				if err := fs.dev.Share(t, []ssd.Pair{{Dst: p.Dst + off, Src: p.Src + off, Len: n}}); err != nil {
					return err
				}
			}
			start = i + 1
			continue
		}
		if units+int(p.Len) > max {
			if err := flush(i); err != nil {
				return err
			}
		}
		units += int(p.Len)
	}
	return flush(len(pairs))
}

// Copy duplicates srcName into a new file dstName without copying any
// data: it allocates the destination and SHAREs the whole-page range (the
// "file copy operations ... almost without copying data" case from §1).
// The trailing partial page, if any, is copied through the host since
// SHARE works in whole mapping units.
func (fs *FS) Copy(t *sim.Task, dstName, srcName string) (*File, error) {
	src, err := fs.Open(t, srcName)
	if err != nil {
		return nil, err
	}
	dst, err := fs.Create(t, dstName)
	if err != nil {
		return nil, err
	}
	size := src.Size()
	ps := int64(fs.pageSize)
	whole := size / ps * ps
	if whole > 0 {
		if err := dst.Allocate(t, 0, whole); err != nil {
			return nil, err
		}
		pairs, err := AppendSharePairs(nil, dst, 0, src, 0, whole)
		if err != nil {
			return nil, err
		}
		if err := fs.Share(t, pairs); err != nil {
			return nil, err
		}
	}
	if tail := size - whole; tail > 0 {
		buf := make([]byte, tail)
		if _, err := src.ReadAt(t, buf, whole); err != nil {
			return nil, err
		}
		if _, err := dst.WriteAt(t, buf, whole); err != nil {
			return nil, err
		}
	}
	if err := dst.Truncate(t, size); err != nil {
		return nil, err
	}
	return dst, nil
}
