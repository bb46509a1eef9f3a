// Package wal implements an append-only write-ahead log on its own
// device, matching the paper's setup where the MySQL redo log lives on a
// separate (fast, power-protected) SSD. The log is a byte stream of
// length-prefixed records segmented into pages; records may span pages, so
// engines can log full page images. Sync writes the buffered tail and
// flushes the device — the group-commit unit; GroupSync (group.go)
// coalesces concurrent commits' syncs into one.
//
// Records are opaque byte slices to the log; the database engines define
// their own record encodings and replay logic.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync/atomic"

	"share/internal/sim"
	"share/internal/ssd"
)

// ErrFull is returned when the ring has no space left; the engine must
// checkpoint and Truncate.
var ErrFull = errors.New("wal: log ring full; checkpoint required")

const (
	pageMagic = 0x57414C50 // "WALP"
	pageHdr   = 16         // magic u32, seq u64, used u32
	recHdr    = 4          // record length prefix
)

// Log is an append-only record log over a contiguous LPN range of a
// device. Old space is reclaimed by Truncate after engine checkpoints.
//
// The log is safe for concurrent use: a latch serializes Append, Sync,
// Truncate and ReadAll, and it is held across the device I/O — the tail
// slot is rewritten by both Append (when a page fills) and Sync (partial
// tail), and interleaving a stale tail image between those writes would
// corrupt the stream”s record boundaries. Scalar counters (head, lsn,
// durable, written, bytes) are mirrored through atomics so the getters
// need no latch and never queue behind a leader”s fsync.
type Log struct {
	dev      *ssd.Device
	start    uint32 // first LPN of the log area
	pages    uint32 // log area length
	pageSize int
	stream   int // device write-stream hint; < 0 means unhinted

	latch sim.Mutex // serializes mutators, held across device I/O

	head    atomic.Uint32 // slot holding the current (partial) page
	seq     uint64        // page sequence number (latch only)
	pending []byte        // stream bytes not yet part of a full page (latch only)
	page    []byte        // emit scratch page, reused for every program (latch only)
	lsn     atomic.Int64  // next record LSN (monotonic record counter)
	durable atomic.Int64  // highest LSN guaranteed durable
	written atomic.Int64  // page writes issued
	bytes   atomic.Int64  // record payload bytes appended

	readTruncations atomic.Int64 // ReadAll scans ended early by an unreadable page

	gc group // group-commit rendezvous (group.go)
}

// New creates an empty log over [start, start+pages) of dev.
func New(dev *ssd.Device, start, pages uint32) (*Log, error) {
	if pages < 2 {
		return nil, fmt.Errorf("wal: need at least 2 pages")
	}
	ps := dev.PageSize()
	return &Log{dev: dev, start: start, pages: pages, pageSize: ps, stream: -1, page: make([]byte, ps)}, nil
}

// SetStream pins every log page write to one device write stream, so a
// group commit stays a single coalesced flush into one open block even on
// a multi-stream device. A negative value restores unhinted writes.
// Set before concurrent appenders start; the field is not latch-protected.
func (l *Log) SetStream(s int) { l.stream = s }

// Stream returns the log's device write-stream hint (< 0 when unhinted).
func (l *Log) Stream() int { return l.stream }

// capacityPerPage returns usable stream bytes per log page.
func (l *Log) capacityPerPage() int { return l.pageSize - pageHdr }

// Remaining returns how many whole pages of ring space are left.
func (l *Log) Remaining() int { return int(l.pages - l.head.Load()) }

// Append buffers one record and returns its LSN. Records may exceed a
// page; they are segmented across pages. The record becomes durable only
// after Sync returns.
func (l *Log) Append(t *sim.Task, rec []byte) (int64, error) {
	l.latch.Lock(t)
	defer l.latch.Unlock(t)
	need := (len(l.pending) + recHdr + len(rec) + l.capacityPerPage() - 1) / l.capacityPerPage()
	if int(l.head.Load())+need > int(l.pages) {
		return 0, ErrFull
	}
	var hdr [recHdr]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(rec)))
	l.pending = append(l.pending, hdr[:]...)
	l.pending = append(l.pending, rec...)
	l.bytes.Add(int64(len(rec)))
	// Emit full pages eagerly, then compact the unemitted rest to the
	// front in place so the backing array is reused by later appends.
	cpp := l.capacityPerPage()
	off := 0
	var err error
	for len(l.pending)-off >= cpp {
		if err = l.emit(t, l.pending[off:off+cpp], true); err != nil {
			break
		}
		off += cpp
	}
	if off > 0 {
		l.pending = l.pending[:copy(l.pending, l.pending[off:])]
	}
	if err != nil {
		return 0, err
	}
	return l.lsn.Add(1) - 1, nil
}

// emit writes data (at most one page of stream bytes) into the current
// slot. advance moves to the next slot (used when the page is full);
// otherwise the slot will be rewritten by later emits (partial sync of the
// tail page).
//
// The page image is built in l.page, reused under the latch: the device
// programs synchronously and the chip copies the payload, so nothing
// retains the buffer once WritePageStream returns. Bytes past used are
// cleared, so every programmed page is the same as a freshly zeroed one.
func (l *Log) emit(t *sim.Task, data []byte, advance bool) error {
	head := l.head.Load()
	if head >= l.pages {
		return ErrFull
	}
	buf := l.page
	l.seq++
	binary.LittleEndian.PutUint32(buf[0:], pageMagic)
	binary.LittleEndian.PutUint64(buf[4:], l.seq)
	binary.LittleEndian.PutUint32(buf[12:], uint32(len(data)))
	clear(buf[pageHdr+copy(buf[pageHdr:], data):])
	if err := l.dev.WritePageStream(t, l.start+head, buf, l.stream); err != nil {
		return err
	}
	l.written.Add(1)
	if advance {
		l.head.Store(head + 1)
	}
	return nil
}

// Sync makes every appended record durable: it writes the partial tail
// page and issues a device flush. This is the fsync in a commit. The
// latch is held across the flush, so the durable horizon recorded on
// return covers exactly the records appended before this Sync.
func (l *Log) Sync(t *sim.Task) error {
	l.latch.Lock(t)
	defer l.latch.Unlock(t)
	if len(l.pending) > 0 {
		if err := l.emit(t, l.pending, false); err != nil {
			return err
		}
	}
	if err := l.dev.Flush(t); err != nil {
		return err
	}
	l.durable.Store(l.lsn.Load())
	return nil
}

// Truncate discards the log contents after an engine checkpoint: all
// records are reflected in the data files, so the ring restarts. The freed
// pages are trimmed.
func (l *Log) Truncate(t *sim.Task) error {
	l.latch.Lock(t)
	defer l.latch.Unlock(t)
	if err := l.dev.Trim(t, l.start, int(l.pages)); err != nil {
		return err
	}
	l.head.Store(0)
	l.pending = l.pending[:0]
	return nil
}

// LSN returns the next record LSN (== count of records appended).
func (l *Log) LSN() int64 { return l.lsn.Load() }

// DurableLSN returns the highest LSN guaranteed durable by a prior Sync.
func (l *Log) DurableLSN() int64 { return l.durable.Load() }

// PagesWritten returns the number of log page writes issued — the measure
// the PostgreSQL full-page-writes experiment compares.
func (l *Log) PagesWritten() int64 { return l.written.Load() }

// BytesAppended returns total record payload bytes appended.
func (l *Log) BytesAppended() int64 { return l.bytes.Load() }

// ReadTruncations returns how many ReadAll scans ended early because a log
// page was unreadable (replay stopped at the last recoverable record).
func (l *Log) ReadTruncations() int64 { return l.readTruncations.Load() }

// ReadAll returns every complete record currently readable from the log
// area in append order, for crash recovery. It scans pages in slot order
// with increasing sequence numbers and reassembles the byte stream; a torn
// or missing tail ends the scan, dropping any trailing partial record.
//
// An unreadable page — a device read fault the FTL's retry path could not
// recover — also ends the scan rather than failing recovery outright: the
// log is replayable up to the last readable record, exactly like a torn
// tail, and the truncation is counted (ReadTruncations) so the engine can
// report it. Records past the bad page are lost.
func (l *Log) ReadAll(t *sim.Task) ([][]byte, error) {
	l.latch.Lock(t)
	defer l.latch.Unlock(t)
	buf := make([]byte, l.pageSize)
	var stream []byte
	var lastSeq uint64
	for slot := uint32(0); slot < l.pages; slot++ {
		if err := l.dev.ReadPage(t, l.start+slot, buf); err != nil {
			l.readTruncations.Add(1)
			break
		}
		if binary.LittleEndian.Uint32(buf[0:]) != pageMagic {
			break
		}
		seq := binary.LittleEndian.Uint64(buf[4:])
		if seq <= lastSeq {
			break
		}
		lastSeq = seq
		used := int(binary.LittleEndian.Uint32(buf[12:]))
		if used > l.capacityPerPage() {
			break
		}
		stream = append(stream, buf[pageHdr:pageHdr+used]...)
	}
	var out [][]byte
	off := 0
	for off+recHdr <= len(stream) {
		n := int(binary.LittleEndian.Uint32(stream[off:]))
		if off+recHdr+n > len(stream) {
			break // torn tail record
		}
		rec := make([]byte, n)
		copy(rec, stream[off+recHdr:])
		out = append(out, rec)
		off += recHdr + n
	}
	return out, nil
}
