package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"time"

	"share/internal/couch"
	"share/internal/fsim"
	"share/internal/innodb"
	"share/internal/linkbench"
	"share/internal/nand"
	"share/internal/pgmini"
	"share/internal/sim"
	"share/internal/ssd"
	"share/internal/stats"
	"share/internal/ycsb"
)

// workload is one named benchmark input. setup builds a fresh stack from
// the seed (aging, format, open, load); the rig it returns runs one
// measured window and checks its own outputs.
type workload struct {
	name  string
	setup func(seed int64) (rig, error)
	// windows is the number of measured windows a repetition runs back
	// to back on one set-up stack. Host-clock metrics take the median
	// over every window of a run: a workload with a costly set-up gets
	// more windows per set-up, one whose host speed varies from one
	// set-up to the next gets more set-ups.
	windows int
}

// rig is a set-up stack ready for its measured window.
type rig interface {
	// run executes the measured window; tr is nil in untraced runs.
	run(tr *tracer) (*window, error)
	// check runs the correctness oracle after the window and returns the
	// number of checks made and a description of each that failed.
	check() (int, []string)
	// counters snapshots the layer counters the stack exposes through its
	// public Stats methods (engine, pool, log, file system), keyed by
	// "<layer>.<counter>".
	counters() map[string]float64
	// dataDevice is the drive write_amp and dev_write_pages_per_op count.
	dataDevice() *ssd.Device
}

// window is what one measured window produced, or several added up.
type window struct {
	ops    int64 // ops issued in the host window
	failed int64 // ops that returned an error
	simOps int64 // ops in the virtual window, if fewer than ops
	simNs  int64 // virtual time the virtual window spanned
	// Per-op virtual latency, ns: raw samples in a buffer the rig
	// allocated at set-up (so recording them allocates nothing inside the
	// window), or a histogram where the workload package records it.
	samples []int64
	lat     *stats.Histogram
	// extra holds per-layer figures only the harness can measure, such as
	// the time spent in compactions it issued.
	extra map[string]float64
}

// add accumulates another window into w.
func (w *window) add(o *window) {
	w.ops += o.ops
	w.failed += o.failed
	w.simOps += o.simOps
	if o.simOps == 0 {
		w.simOps += o.ops
	}
	w.simNs += o.simNs
	for _, v := range o.samples {
		w.lat.Add(v)
	}
	if o.lat != nil {
		w.lat.Merge(o.lat)
	}
	for k, v := range o.extra {
		w.extra[k] += v
	}
}

var workloads = []workload{
	{"linkbench-share", setupLinkbench, 4},
	{"pgbench-fpw-share", setupPgbench, 1},
	{"ycsb-a-couch-share", setupYCSB, 2},
	{"device-zipf", setupDevice, 2},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// Sizes. The engine workloads use the repository's experiment stack at
// 0.02 of the paper's scale: a 163-block (82 MiB) OpenSSD-like data drive
// aged to 95% and trimmed, and a separate power-protected log drive.
const (
	dataBlocks = 163
	logBlocks  = 81

	linkClients  = 16
	linkRequests = 750 // per client in each window
	linkWarmup   = 250 // per client, during set-up
	linkCatchUp  = 50  // per client, unmeasured, at the start of each window
	linkPoolMB   = 1

	pgScale      = 50
	pgTxns       = 12000
	pgCheckpoint = 3000

	ycsbRecords   = 5000
	ycsbValueSize = 4000
	ycsbBatch     = 16
	ycsbOps       = 30000
	ycsbSample    = 500 // keys read back after the window

	devBlocks  = 1024
	devFill    = 0.9
	devRewrite = 0.5
	devClients = 8
	devOps     = 100000
)

// seedFor derives a nonzero sub-seed for one random stream of a run, so
// the streams of one run differ and no stream falls back to a package's
// default seed.
func seedFor(seed int64, stream int64) int64 {
	s := seed*1_000_003 + stream
	if s == 0 {
		s = 1
	}
	return s
}

// agedDataDevice builds the OpenSSD-like data drive, ages it (95% fill,
// 30% random rewrites) so garbage collection is active, and discards the
// logical space the way mke2fs does before the file system is laid down.
func agedDataDevice(seed int64) (*ssd.Device, *sim.Task, error) {
	dev, err := ssd.New("data", ssd.DefaultConfig(dataBlocks))
	if err != nil {
		return nil, nil, err
	}
	task := sim.NewSoloTask("setup")
	if err := dev.Age(task, 0.95, 0.3, seedFor(seed, 1)); err != nil {
		return nil, nil, err
	}
	if err := dev.Trim(task, 0, dev.Capacity()); err != nil {
		return nil, nil, err
	}
	return dev, task, nil
}

// logDevice is the power-loss-protected log drive; fast selects the
// enterprise timing of the MySQL redo drive.
func logDevice(fast bool) (*ssd.Device, error) {
	cfg := ssd.DefaultConfig(logBlocks)
	if fast {
		cfg.Timing = nand.Timing{
			ReadPage: 20 * sim.Microsecond,
			Program:  50 * sim.Microsecond,
			Erase:    500 * sim.Microsecond,
			Transfer: 5 * sim.Microsecond,
		}
	}
	cfg.FTL.PowerCapacitor = true
	return ssd.New("log", cfg)
}

// ---- linkbench-share ----

type linkRig struct {
	dev    *ssd.Device
	fs     *fsim.FS
	eng    *innodb.Engine
	cfg    linkbench.Config
	before innodb.Stats // at the end of set-up
	seed   int64
	// Requests the windows measured, and the write requests among them.
	requests, writes int64
	windows          int
}

func setupLinkbench(seed int64) (rig, error) {
	dev, task, err := agedDataDevice(seed)
	if err != nil {
		return nil, err
	}
	fs, err := fsim.Format(task, dev, 256)
	if err != nil {
		return nil, err
	}
	logDev, err := logDevice(true)
	if err != nil {
		return nil, err
	}
	eng, err := innodb.Open(task, fs, logDev, innodb.Config{
		PageSize:  4096,
		PoolBytes: linkPoolMB << 20,
		FlushMode: innodb.Share,
		DWBPages:  32,
		DataBytes: dev.CapacityBytes() * 60 / 100,
		LogPages:  uint32(logDev.Capacity()) / 2,
	})
	if err != nil {
		return nil, err
	}
	// ~38% of the drive, the paper's 1.5 GiB-on-4 GiB ratio.
	cfg := linkbench.Config{
		Nodes:   int(dev.CapacityBytes() * 38 / 100 / 1500),
		Clients: linkClients,
		Seed:    seedFor(seed, 2),
	}
	if err := linkbench.Load(task, eng, cfg); err != nil {
		return nil, err
	}
	warm := cfg
	warm.Requests, warm.Seed = linkWarmup, seedFor(seed, 3)
	if _, err := linkbench.Run(eng, warm); err != nil {
		return nil, err
	}
	// Run starts its clients' clocks at zero, behind the drives' clocks, and
	// a client's clock jumps to the present at its first device access or
	// lock hand-off. Unmeasured requests at the start of the window (the
	// first write commits to the log drive) keep that jump out of the
	// virtual-clock metrics.
	cfg.Requests, cfg.Warmup = linkRequests, linkCatchUp
	return &linkRig{dev: dev, fs: fs, eng: eng, cfg: cfg, before: eng.Stats(), seed: seed}, nil
}

func (r *linkRig) run(tr *tracer) (*window, error) {
	r.cfg.Seed = seedFor(r.seed, int64(10+r.windows)) // fresh requests per window
	began := tr.start()
	res, err := linkbench.Run(r.eng, r.cfg)
	if err != nil {
		return nil, err
	}
	tr.end(callLinkbenchRun, began, res.Elapsed)
	r.windows++
	all := stats.NewHistogram()
	for op, h := range res.Latency {
		all.Merge(h)
		r.requests += int64(h.Count())
		if !linkbench.Op(op).IsRead() {
			r.writes += int64(h.Count())
		}
	}
	// Host time and counters cover every request of the run; the virtual
	// clock covers the measured requests.
	return &window{ops: int64(r.cfg.Clients * (r.cfg.Requests + r.cfg.Warmup)),
		simOps: res.Ops, simNs: res.Elapsed, lat: all}, nil
}

// check: the engine is not degraded, every request ran, the commit count
// fits the write requests (read-only requests commit nothing), and the
// file system is consistent.
func (r *linkRig) check() (int, []string) {
	var fails []string
	st := r.eng.Stats()
	if st.Degraded {
		fails = append(fails, "innodb engine degraded")
	}
	if want := int64(r.windows * r.cfg.Clients * r.cfg.Requests); r.requests != want {
		fails = append(fails, fmt.Sprintf("linkbench ran %d requests, issued %d", r.requests, want))
	}
	// The unmeasured catch-up requests committed too, if they wrote.
	catchUp := int64(r.windows * r.cfg.Clients * r.cfg.Warmup)
	if got := st.Commits - r.before.Commits; got < r.writes || got > r.writes+catchUp {
		fails = append(fails, fmt.Sprintf("innodb committed %d txns for %d write requests", got, r.writes))
	}
	if err := r.fs.Fsck(); err != nil {
		fails = append(fails, err.Error())
	}
	return 3, fails
}

func (r *linkRig) counters() map[string]float64 {
	st, ps, fsst := r.eng.Stats(), r.eng.Pool().Stats(), r.fs.Stats()
	return map[string]float64{
		"innodb.flush_batches": float64(st.FlushBatches),
		"innodb.share_pairs":   float64(st.SharePairs),
		"innodb.checkpoints":   float64(st.Checkpoints),
		"innodb.group_commits": float64(st.GroupCommits),
		"innodb.grouped_txns":  float64(st.GroupedTxns),
		"bufpool.hits":         float64(ps.Hits),
		"bufpool.misses":       float64(ps.Misses),
		"bufpool.evictions":    float64(ps.Evictions),
		"bufpool.flushed":      float64(ps.FlushedPages),
		"wal.bytes":            float64(r.eng.Log().BytesAppended()),
		"wal.pages":            float64(r.eng.Log().PagesWritten()),
		"wal.syncs":            float64(st.GroupCommits),
		"fsim.meta_journal":    float64(fsst.MetaJournalWrites),
		"fsim.meta_home":       float64(fsst.MetaHomeWrites),
	}
}

func (r *linkRig) dataDevice() *ssd.Device { return r.dev }

// ---- pgbench-fpw-share ----

type pgRig struct {
	dev  *ssd.Device
	fs   *fsim.FS
	db   *pgmini.DB
	task *sim.Task
	rng  *rand.Rand
	lat  []int64
	// windows run so far
	windows int
}

func setupPgbench(seed int64) (rig, error) {
	dev, task, err := agedDataDevice(seed)
	if err != nil {
		return nil, err
	}
	fs, err := fsim.Format(task, dev, 256)
	if err != nil {
		return nil, err
	}
	logDev, err := logDevice(false)
	if err != nil {
		return nil, err
	}
	// shared_buffers hold the whole working set (~26 MB at scale 50), so
	// once warm the backend waits only on the WAL.
	cfg := pgmini.Config{
		Scale:           pgScale,
		Mode:            pgmini.FPWShare,
		PoolBytes:       int64(pgScale)*2500/40*4096*2 + 1<<20,
		CheckpointEvery: pgCheckpoint,
	}
	db, err := pgmini.Open(task, fs, logDev, cfg)
	if err != nil {
		return nil, err
	}
	// Restart the server: Open on the existing heap recovers and starts
	// with a cold pool, so the first windows fault the working set in from
	// the aged drive while checkpoints write to it. Without the restart
	// the loaded pool already holds everything, every transaction waits
	// on exactly one log program, and the virtual clock would read the
	// same for every seed.
	if err := db.Checkpoint(task); err != nil {
		return nil, err
	}
	if db, err = pgmini.Open(task, fs, logDev, cfg); err != nil {
		return nil, err
	}
	db.Background = sim.NewSoloTask("checkpointer")
	return &pgRig{dev: dev, fs: fs, db: db, task: task,
		rng: rand.New(rand.NewSource(seedFor(seed, 2))), lat: make([]int64, 0, pgTxns)}, nil
}

func (r *pgRig) run(tr *tracer) (*window, error) {
	w := &window{ops: pgTxns}
	r.lat = r.lat[:0]
	start := r.task.Now()
	for i := 0; i < pgTxns; i++ {
		began, s0 := tr.start(), r.task.Now()
		if err := r.db.RunTxn(r.task, r.rng); err != nil {
			w.failed++
		}
		d := r.task.Now() - s0
		tr.end(callRunTxn, began, d)
		r.lat = append(r.lat, d)
	}
	w.simNs = r.task.Now() - start
	w.samples = r.lat
	r.windows++
	return w, nil
}

// check: every txn committed, the database is not degraded, balances are
// conserved (each txn adds one delta to an account, a teller and a
// branch, so the three sums agree), and the file system is consistent.
func (r *pgRig) check() (int, []string) {
	var fails []string
	st := r.db.Stats()
	if st.Degraded {
		fails = append(fails, "pgmini degraded")
	}
	if want := int64(r.windows * pgTxns); st.Commits != want {
		fails = append(fails, fmt.Sprintf("pgmini committed %d of %d txns", st.Commits, want))
	}
	sum := func(n int, bal func(*sim.Task, int) (int64, error)) int64 {
		var s int64
		for i := 0; i < n; i++ {
			v, err := bal(r.task, i)
			if err != nil {
				fails = append(fails, err.Error())
				return 0
			}
			s += v
		}
		return s
	}
	acc := sum(r.db.Accounts(), r.db.Balance)
	tel := sum(r.db.Tellers(), r.db.TellerBalance)
	br := sum(r.db.Branches(), r.db.BranchBalance)
	if acc != tel || acc != br {
		fails = append(fails, fmt.Sprintf("balances not conserved: accounts %d, tellers %d, branches %d", acc, tel, br))
	}
	if err := r.fs.Fsck(); err != nil {
		fails = append(fails, err.Error())
	}
	return 4, fails
}

func (r *pgRig) counters() map[string]float64 {
	st, fsst := r.db.Stats(), r.fs.Stats()
	return map[string]float64{
		"bufpool.flushed":    float64(st.DataPagesFlushed),
		"wal.bytes":          float64(r.db.WALBytes()),
		"wal.pages":          float64(st.WALPages),
		"wal.syncs":          float64(st.GroupCommits),
		"pgmini.full_images": float64(st.FullImages),
		"pgmini.checkpoints": float64(st.Checkpoints),
		"fsim.meta_journal":  float64(fsst.MetaJournalWrites),
		"fsim.meta_home":     float64(fsst.MetaHomeWrites),
	}
}

func (r *pgRig) dataDevice() *ssd.Device { return r.dev }

// ---- ycsb-a-couch-share ----

type ycsbRig struct {
	dev     *ssd.Device
	fs      *fsim.FS
	st      *couch.Store
	task    *sim.Task
	bg      *sim.Task // compaction runs here, as Couchbase compacts in the background
	rng     *rand.Rand
	zipf    *rand.Zipf
	version []uint32 // last version written per record
	val     []byte
	lat     []int64
	seed    int64
	// Keys with an update in the open (uncommitted) batch, and the store's
	// commit count when the batch opened.
	pending []int
	commits int64
}

// ycsbValue fills buf with record i's value at version v: the key index
// and version stamped first, then bytes derived from both.
func ycsbValue(buf []byte, seed int64, i int, v uint32) {
	binary.LittleEndian.PutUint64(buf[0:], uint64(i))
	binary.LittleEndian.PutUint32(buf[8:], v)
	x := uint64(seed)*0x9e3779b97f4a7c15 ^ uint64(i)<<20 ^ uint64(v) | 1
	for o := 12; o < len(buf); o++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		buf[o] = byte(x)
	}
}

func setupYCSB(seed int64) (rig, error) {
	dev, task, err := agedDataDevice(seed)
	if err != nil {
		return nil, err
	}
	fs, err := fsim.Format(task, dev, 256)
	if err != nil {
		return nil, err
	}
	st, err := couch.Open(task, fs, couch.Config{
		ShareMode: true,
		BatchSize: ycsbBatch,
		// Compact early enough that the old and new files fit side by
		// side during the swap.
		CompactThreshold: 0.45,
		DocCacheEntries:  ycsbRecords / 10,
		// Three index levels, as the paper's 250k-document store had.
		MaxFanout: 18,
	})
	if err != nil {
		return nil, err
	}
	r := &ycsbRig{dev: dev, fs: fs, st: st, task: task, bg: sim.NewSoloTask("compactor"),
		version: make([]uint32, ycsbRecords), val: make([]byte, ycsbValueSize),
		lat: make([]int64, 0, ycsbOps), seed: seed}
	// YCSB's load phase is bulk: a large commit batch, then the
	// benchmark's.
	st.SetBatchSize(256)
	for i := 0; i < ycsbRecords; i++ {
		ycsbValue(r.val, seed, i, 0)
		if err := st.Set(task, ycsb.Key(i), r.val); err != nil {
			return nil, err
		}
	}
	if err := st.Commit(task); err != nil {
		return nil, err
	}
	st.SetBatchSize(ycsbBatch)
	r.commits = st.Stats().Commits
	r.rng = rand.New(rand.NewSource(seedFor(seed, 2)))
	r.zipf = rand.NewZipf(r.rng, 1.1, 8, ycsbRecords-1)
	return r, nil
}

// run issues YCSB workload A: 50% reads, 50% updates, zipf-skewed keys.
// Reads are checked inline against the version last written.
func (r *ycsbRig) run(tr *tracer) (*window, error) {
	w := &window{ops: ycsbOps, extra: map[string]float64{}}
	r.lat = r.lat[:0]
	t := r.task
	start := t.Now()
	for n := 0; n < ycsbOps; n++ {
		i := int(r.zipf.Uint64() * 2654435761 % ycsbRecords)
		key := ycsb.Key(i)
		s0 := t.Now()
		if r.rng.Intn(2) == 0 {
			// Read barrier: in SHARE mode couch.Get does not see an update
			// still in the open batch unless its document cache holds it,
			// and then caches the older version it read. Committing first
			// keeps every read checkable against the last value written.
			if slices.Contains(r.pending, i) {
				if err := r.st.Commit(t); err != nil {
					w.failed++
				}
				w.extra["couch.read_barriers"]++
				r.syncBatch()
			}
			began, g0 := tr.start(), t.Now()
			v, ok, err := r.st.Get(t, key)
			tr.end(callCouchGet, began, t.Now()-g0)
			if err != nil || !ok || len(v) != ycsbValueSize ||
				binary.LittleEndian.Uint64(v) != uint64(i) || binary.LittleEndian.Uint32(v[8:]) != r.version[i] {
				w.failed++
			}
		} else {
			r.version[i]++
			ycsbValue(r.val, r.seed, i, r.version[i])
			began := tr.start()
			err := r.st.Set(t, key, r.val)
			tr.end(callCouchSet, began, t.Now()-s0)
			if err != nil {
				w.failed++
			}
			if !r.syncBatch() {
				r.pending = append(r.pending, i)
			}
		}
		r.lat = append(r.lat, t.Now()-s0)
		if r.st.NeedsCompaction() {
			r.bg.AdvanceTo(t.Now())
			c0, cs := tr.start(), r.bg.Now()
			h0 := time.Now()
			if _, err := r.st.Compact(r.bg); err != nil {
				w.failed++
			}
			w.extra["couch.compact_host_s"] += time.Since(h0).Seconds()
			w.extra["couch.compact_sim_s"] += float64(r.bg.Now()-cs) / 1e9
			tr.end(callCouchCompact, c0, r.bg.Now()-cs)
			r.syncBatch()
		}
	}
	if err := r.st.Commit(t); err != nil {
		w.failed++
	}
	r.syncBatch()
	w.simNs = t.Now() - start
	w.samples = r.lat
	return w, nil
}

// syncBatch empties the open-batch key set if the store committed since
// the batch opened, and reports whether it did.
func (r *ycsbRig) syncBatch() bool {
	c := r.st.Stats().Commits
	if c == r.commits {
		return false
	}
	r.commits, r.pending = c, r.pending[:0]
	return true
}

// check: the store is not degraded, a seeded sample of keys reads back
// the last value written byte for byte, and the file system is
// consistent.
func (r *ycsbRig) check() (int, []string) {
	var fails []string
	if r.st.Degraded() {
		fails = append(fails, "couch store degraded")
	}
	rng := rand.New(rand.NewSource(seedFor(r.seed, 5)))
	want := make([]byte, ycsbValueSize)
	bad := 0
	for n := 0; n < ycsbSample; n++ {
		i := rng.Intn(ycsbRecords)
		ycsbValue(want, r.seed, i, r.version[i])
		got, ok, err := r.st.Get(r.task, ycsb.Key(i))
		if err != nil || !ok || !bytes.Equal(got, want) {
			bad++
		}
	}
	if bad > 0 {
		fails = append(fails, fmt.Sprintf("%d of %d sampled keys do not read back their last value", bad, ycsbSample))
	}
	if err := r.fs.Fsck(); err != nil {
		fails = append(fails, err.Error())
	}
	return 2 + ycsbSample, fails
}

func (r *ycsbRig) counters() map[string]float64 {
	st, fsst := r.st.Stats(), r.fs.Stats()
	return map[string]float64{
		"couch.doc_pages":    float64(st.DocPagesWritten),
		"couch.node_pages":   float64(st.NodePagesWritten),
		"couch.header_pages": float64(st.HeaderPages),
		"couch.share_pairs":  float64(st.SharePairs),
		"couch.compactions":  float64(st.Compactions),
		"fsim.meta_journal":  float64(fsst.MetaJournalWrites),
		"fsim.meta_home":     float64(fsst.MetaHomeWrites),
	}
}

func (r *ycsbRig) dataDevice() *ssd.Device { return r.dev }

// ---- device-zipf ----

type devRig struct {
	dev   *ssd.Device
	n     int      // LPNs in the traffic range
	model []uint64 // content id last written (or shared) per LPN; 0 = unmapped
	next  uint64   // next content id
	seed  int64
	now   int64   // virtual time the last window (or aging) ended; clients start there
	lat   []int64 // per-op latency; client c fills its own segment
}

// fillPage stamps content id into every 8-byte word of page, mixed with
// the word index so no two words of a page are equal.
func fillPage(page []byte, id uint64) {
	for o := 0; o < len(page); o += 8 {
		binary.LittleEndian.PutUint64(page[o:], id*0x9e3779b97f4a7c15+uint64(o))
	}
}

// pageHolds reports whether page carries content id.
func pageHolds(page []byte, id uint64) bool {
	for o := 0; o < len(page); o += 8 {
		if binary.LittleEndian.Uint64(page[o:]) != id*0x9e3779b97f4a7c15+uint64(o) {
			return false
		}
	}
	return true
}

func setupDevice(seed int64) (rig, error) {
	cfg := ssd.DefaultConfig(devBlocks)
	cfg.Geometry.Channels, cfg.Geometry.DiesPerChannel = 4, 1
	dev, err := ssd.New("raw", cfg)
	if err != nil {
		return nil, err
	}
	r := &devRig{dev: dev, n: int(float64(dev.Capacity()) * devFill), seed: seed, next: 1}
	r.model = make([]uint64, dev.Capacity())
	r.lat = make([]int64, devOps)
	// Age with content the model knows: fill the traffic range, then
	// rewrite half of it at random so blocks hold mixed live and stale
	// pages and garbage collection is busy from the first command.
	task := sim.NewSoloTask("aging")
	rng := rand.New(rand.NewSource(seedFor(seed, 1)))
	page := make([]byte, dev.PageSize())
	write := func(lpn int) error {
		r.model[lpn] = r.next
		fillPage(page, r.next)
		r.next++
		return dev.WritePage(task, uint32(lpn), page)
	}
	for lpn := 0; lpn < r.n; lpn++ {
		if err := write(lpn); err != nil {
			return nil, err
		}
	}
	for k := 0; k < int(float64(r.n)*devRewrite); k++ {
		if err := write(rng.Intn(r.n)); err != nil {
			return nil, err
		}
	}
	if err := dev.Flush(task); err != nil {
		return nil, err
	}
	r.now = task.Now()
	return r, nil
}

// run drives devClients closed-loop virtual clients, each issuing
// zipf-skewed 4 KiB writes (45%), reads (45%) and single-page SHAREs
// (10%). The model is updated when a command is issued: the device
// applies a command's effect before its task can yield, so the model
// order is the device's order. Every read is checked against the model.
func (r *devRig) run(tr *tracer) (*window, error) {
	per := devOps / devClients
	failed := make([]int64, devClients)
	starts := make([]int64, devClients)
	ends := make([]int64, devClients)
	sched := sim.NewScheduler()
	for c := 0; c < devClients; c++ {
		c := c
		lat := r.lat[c*per : (c+1)*per]
		sched.Go(fmt.Sprintf("client%d", c), func(t *sim.Task) {
			rng := rand.New(rand.NewSource(seedFor(r.seed, int64(10+c))))
			zipf := rand.NewZipf(rng, 1.1, 8, uint64(r.n-1))
			page := make([]byte, r.dev.PageSize())
			pair := make([]ssd.Pair, 1)
			t.AdvanceTo(r.now)
			starts[c] = t.Now()
			for k := 0; k < per; k++ {
				lpn := int(zipf.Uint64() * 2654435761 % uint64(r.n))
				began, s0 := tr.start(), t.Now()
				var err error
				switch op := rng.Intn(100); {
				case op < 45:
					r.model[lpn] = r.next
					fillPage(page, r.next)
					r.next++
					err = r.dev.WritePage(t, uint32(lpn), page)
					tr.end(callWritePage, began, t.Now()-s0)
				case op < 90:
					want := r.model[lpn]
					err = r.dev.ReadPage(t, uint32(lpn), page)
					tr.end(callReadPage, began, t.Now()-s0)
					if err == nil && !pageHolds(page, want) {
						failed[c]++
					}
				default:
					src := rng.Intn(r.n)
					for src == lpn || r.model[src] == 0 {
						src = rng.Intn(r.n)
					}
					r.model[lpn] = r.model[src]
					pair[0] = ssd.Pair{Dst: uint32(lpn), Src: uint32(src), Len: 1}
					err = r.dev.Share(t, pair)
					tr.end(callShare, began, t.Now()-s0)
				}
				if err != nil {
					failed[c]++
				}
				lat[k] = t.Now() - s0
			}
			ends[c] = t.Now()
		})
	}
	sched.Run()
	w := &window{ops: int64(per * devClients), samples: r.lat}
	minStart, maxEnd := starts[0], ends[0]
	for c := 0; c < devClients; c++ {
		w.failed += failed[c]
		minStart, maxEnd = min(minStart, starts[c]), max(maxEnd, ends[c])
	}
	w.simNs = maxEnd - minStart
	r.now = maxEnd
	return w, nil
}

// check validates the FTL's internal invariants and reads back every
// LPN of the traffic range against the model.
func (r *devRig) check() (int, []string) {
	var fails []string
	if err := r.dev.FTLForTest().CheckInvariants(); err != nil {
		fails = append(fails, err.Error())
	}
	task := sim.NewSoloTask("verify")
	page := make([]byte, r.dev.PageSize())
	bad := 0
	for lpn := 0; lpn < r.n; lpn++ {
		if err := r.dev.ReadPage(task, uint32(lpn), page); err != nil || !pageHolds(page, r.model[lpn]) {
			bad++
		}
	}
	if bad > 0 {
		fails = append(fails, fmt.Sprintf("%d of %d LPNs do not hold their last written content", bad, r.n))
	}
	return 1 + r.n, fails
}

func (r *devRig) counters() map[string]float64 { return map[string]float64{} }

func (r *devRig) dataDevice() *ssd.Device { return r.dev }
