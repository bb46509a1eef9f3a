package crashcheck

import (
	"fmt"
	"math/rand"

	"share/internal/couch"
	"share/internal/fsim"
	"share/internal/innodb"
	"share/internal/nand"
	"share/internal/pgmini"
	"share/internal/sim"
	"share/internal/sqlmini"
	"share/internal/ssd"
)

// newDataDevice builds the standard small data device every stack uses.
func newDataDevice(name string) (*ssd.Device, error) {
	cfg := ssd.DefaultConfig(512)
	cfg.Geometry.PageSize = 512
	cfg.Geometry.PagesPerBlock = 32
	return ssd.New(name, cfg)
}

// newLogDevice builds the fast, power-capacitor-backed WAL device that
// innodb and pgmini put their logs on.
func newLogDevice(name string) (*ssd.Device, error) {
	cfg := ssd.DefaultConfig(256)
	cfg.Geometry.PageSize = 512
	cfg.Geometry.PagesPerBlock = 32
	cfg.Timing = nand.Timing{
		ReadPage: 20 * sim.Microsecond,
		Program:  50 * sim.Microsecond,
		Erase:    500 * sim.Microsecond,
		Transfer: 5 * sim.Microsecond,
	}
	cfg.FTL.PowerCapacitor = true
	return ssd.New(name, cfg)
}

// ---------------------------------------------------------------------------
// innodb

const (
	innoKeys     = 17
	innoCkptStep = 8 // checkpoint (flush batch through DWB/SHARE) cadence
)

type innoStack struct {
	task *sim.Task
	data *ssd.Device
	log  *ssd.Device
	eng  *innodb.Engine
	tbl  *innodb.Table
	cfg  innodb.Config
}

// NewInnoDB builds an innodb stack: data device + fsim + fast WAL device,
// one table preloaded with innoKeys rows.
func NewInnoDB(mode innodb.FlushMode) (Stack, error) {
	data, err := newDataDevice("cc-inno-data")
	if err != nil {
		return nil, err
	}
	task := sim.NewSoloTask("crashcheck")
	fs, err := fsim.Format(task, data, 32)
	if err != nil {
		return nil, err
	}
	logDev, err := newLogDevice("cc-inno-log")
	if err != nil {
		return nil, err
	}
	cfg := innodb.Config{
		PageSize:  1024,
		PoolBytes: 64 * 1024,
		FlushMode: mode,
		DWBPages:  8,
		DataBytes: 1024 * 1024,
		LogPages:  2048,
	}
	eng, err := innodb.Open(task, fs, logDev, cfg)
	if err != nil {
		return nil, err
	}
	tbl, err := eng.CreateTable(task, "t")
	if err != nil {
		return nil, err
	}
	tx := eng.Begin(task)
	for i := 0; i < innoKeys; i++ {
		if err := tx.Put(tbl, innoKey(i), []byte("init")); err != nil {
			return nil, err
		}
	}
	if err := tx.Commit(); err != nil {
		return nil, err
	}
	if err := eng.Checkpoint(task); err != nil {
		return nil, err
	}
	return &innoStack{task: task, data: data, log: logDev, eng: eng, tbl: tbl, cfg: cfg}, nil
}

func innoKey(i int) []byte { return []byte(fmt.Sprintf("key%02d", i)) }

// innoTxnKeys returns the three keys transaction i updates — spread so
// consecutive transactions overlap, making torn multi-key commits visible.
func innoTxnKeys(i int) []int {
	return []int{i % innoKeys, (i*5 + 1) % innoKeys, (i*11 + 3) % innoKeys}
}

func innoVal(i int) []byte { return []byte(fmt.Sprintf("txn%03d", i)) }

func (s *innoStack) Devices() []*ssd.Device { return []*ssd.Device{s.data, s.log} }

func (s *innoStack) Step(i int) error {
	tx := s.eng.Begin(s.task)
	for _, k := range innoTxnKeys(i) {
		if err := tx.Put(s.tbl, innoKey(k), innoVal(i)); err != nil {
			tx.Rollback()
			return err
		}
	}
	if err := tx.Commit(); err != nil {
		return err
	}
	if (i+1)%innoCkptStep == 0 {
		return s.eng.Checkpoint(s.task)
	}
	return nil
}

func (s *innoStack) Reopen() error {
	for _, d := range []*ssd.Device{s.data, s.log} {
		d.Crash()
		if err := d.Recover(s.task); err != nil {
			return err
		}
	}
	fs, err := fsim.Mount(s.task, s.data)
	if err != nil {
		return err
	}
	eng, err := innodb.Open(s.task, fs, s.log, s.cfg)
	if err != nil {
		return err
	}
	s.eng = eng
	s.tbl = eng.Table("t")
	if s.tbl == nil {
		return fmt.Errorf("table lost across recovery")
	}
	return nil
}

// innoModel is the oracle state after the first n transactions.
func innoModel(n int) map[string]string {
	m := make(map[string]string, innoKeys)
	for i := 0; i < innoKeys; i++ {
		m[string(innoKey(i))] = "init"
	}
	for i := 0; i < n; i++ {
		for _, k := range innoTxnKeys(i) {
			m[string(innoKey(k))] = string(innoVal(i))
		}
	}
	return m
}

func (s *innoStack) Verify(committed, attempted int) error {
	got := make(map[string]string, innoKeys)
	tx := s.eng.Begin(s.task)
	for i := 0; i < innoKeys; i++ {
		v, ok, err := tx.Get(s.tbl, innoKey(i))
		if err != nil {
			tx.Rollback()
			return fmt.Errorf("read %s: %v", innoKey(i), err)
		}
		if !ok {
			tx.Rollback()
			return fmt.Errorf("key %s missing after recovery", innoKey(i))
		}
		got[string(innoKey(i))] = string(v)
	}
	tx.Rollback()
	return diffStates(got, innoModel(committed), innoModel(attempted))
}

// ---------------------------------------------------------------------------
// pgmini

const pgCkptEvery = 10 // transactions per checkpoint: the matrix crosses it

type pgStack struct {
	task   *sim.Task
	data   *ssd.Device
	log    *ssd.Device
	db     *pgmini.DB
	cfg    pgmini.Config
	params []pgmini.TxnParams
}

// NewPg builds a pgmini stack with a deterministic TPC-B parameter list
// of `txns` transactions (seeded independently of the crash sampling).
func NewPg(mode pgmini.Mode, txns int) (Stack, error) {
	data, err := newDataDevice("cc-pg-data")
	if err != nil {
		return nil, err
	}
	task := sim.NewSoloTask("crashcheck")
	fs, err := fsim.Format(task, data, 32)
	if err != nil {
		return nil, err
	}
	logDev, err := newLogDevice("cc-pg-log")
	if err != nil {
		return nil, err
	}
	cfg := pgmini.Config{
		Scale: 1, Mode: mode, PageSize: 512, PoolBytes: 64 * 1024,
		CheckpointEvery: pgCkptEvery,
	}
	db, err := pgmini.Open(task, fs, logDev, cfg)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(42))
	params := make([]pgmini.TxnParams, txns)
	for i := range params {
		params[i] = pgmini.TxnParams{
			Account:    rng.Intn(db.Accounts()),
			Teller:     rng.Intn(db.Tellers()),
			Branch:     rng.Intn(db.Branches()),
			Delta:      int64(rng.Intn(10000) - 5000),
			HistoryVal: uint64(rng.Int63()) | 1,
		}
	}
	return &pgStack{task: task, data: data, log: logDev, db: db, cfg: cfg, params: params}, nil
}

func (s *pgStack) Devices() []*ssd.Device { return []*ssd.Device{s.data, s.log} }

func (s *pgStack) Step(i int) error { return s.db.Txn(s.task, s.params[i]) }

func (s *pgStack) Reopen() error {
	for _, d := range []*ssd.Device{s.data, s.log} {
		d.Crash()
		if err := d.Recover(s.task); err != nil {
			return err
		}
	}
	fs, err := fsim.Mount(s.task, s.data)
	if err != nil {
		return err
	}
	db, err := pgmini.Open(s.task, fs, s.log, s.cfg)
	if err != nil {
		return err
	}
	s.db = db
	return nil
}

// pgModel returns the oracle balances of every touched row after the
// first n transactions, keyed "a<row>"/"t<row>"/"b<row>".
func (s *pgStack) pgModel(n int) map[string]string {
	m := make(map[string]string)
	for _, p := range s.params {
		m[fmt.Sprintf("a%d", p.Account)] = "0"
		m[fmt.Sprintf("t%d", p.Teller)] = "0"
		m[fmt.Sprintf("b%d", p.Branch)] = "0"
	}
	bal := make(map[string]int64)
	for i := 0; i < n; i++ {
		p := s.params[i]
		bal[fmt.Sprintf("a%d", p.Account)] += p.Delta
		bal[fmt.Sprintf("t%d", p.Teller)] += p.Delta
		bal[fmt.Sprintf("b%d", p.Branch)] += p.Delta
	}
	for k := range m {
		m[k] = fmt.Sprintf("%d", bal[k])
	}
	return m
}

func (s *pgStack) Verify(committed, attempted int) error {
	got := make(map[string]string)
	for _, p := range s.params {
		ab, err := s.db.Balance(s.task, p.Account)
		if err != nil {
			return fmt.Errorf("read account %d: %v", p.Account, err)
		}
		tb, err := s.db.TellerBalance(s.task, p.Teller)
		if err != nil {
			return fmt.Errorf("read teller %d: %v", p.Teller, err)
		}
		bb, err := s.db.BranchBalance(s.task, p.Branch)
		if err != nil {
			return fmt.Errorf("read branch %d: %v", p.Branch, err)
		}
		got[fmt.Sprintf("a%d", p.Account)] = fmt.Sprintf("%d", ab)
		got[fmt.Sprintf("t%d", p.Teller)] = fmt.Sprintf("%d", tb)
		got[fmt.Sprintf("b%d", p.Branch)] = fmt.Sprintf("%d", bb)
	}
	return diffStates(got, s.pgModel(committed), s.pgModel(attempted))
}

// ---------------------------------------------------------------------------
// couch

const couchKeys = 13

type couchStack struct {
	task  *sim.Task
	data  *ssd.Device
	store *couch.Store
	cfg   couch.Config
}

// NewCouch builds a couch stack preloaded with couchKeys documents.
// BatchSize 1 makes every Set an acknowledged commit.
func NewCouch(share bool) (Stack, error) {
	data, err := newDataDevice("cc-couch")
	if err != nil {
		return nil, err
	}
	task := sim.NewSoloTask("crashcheck")
	fs, err := fsim.Format(task, data, 32)
	if err != nil {
		return nil, err
	}
	cfg := couch.Config{BatchSize: 1, ShareMode: share}
	st, err := couch.Open(task, fs, cfg)
	if err != nil {
		return nil, err
	}
	for i := 0; i < couchKeys; i++ {
		if err := st.Set(task, couchKey(i), couchVal(-1)); err != nil {
			return nil, err
		}
	}
	return &couchStack{task: task, data: data, store: st, cfg: cfg}, nil
}

func couchKey(i int) []byte { return []byte(fmt.Sprintf("doc%02d", i)) }

// couchVal pads values to ~600 bytes so documents span two device pages
// (a torn document write would be visible as a corrupt read).
func couchVal(i int) []byte {
	v := make([]byte, 600)
	copy(v, fmt.Sprintf("txn%03d-", i))
	for j := 8; j < len(v); j++ {
		v[j] = byte(i + j)
	}
	return v
}

func (s *couchStack) Devices() []*ssd.Device { return []*ssd.Device{s.data} }

func (s *couchStack) Step(i int) error {
	return s.store.Set(s.task, couchKey(i%couchKeys), couchVal(i))
}

func (s *couchStack) Reopen() error {
	s.data.Crash()
	if err := s.data.Recover(s.task); err != nil {
		return err
	}
	fs, err := fsim.Mount(s.task, s.data)
	if err != nil {
		return err
	}
	st, err := couch.Open(s.task, fs, s.cfg)
	if err != nil {
		return err
	}
	s.store = st
	return nil
}

func (s *couchStack) couchModel(n int) map[string]string {
	m := make(map[string]string, couchKeys)
	for i := 0; i < couchKeys; i++ {
		m[string(couchKey(i))] = string(couchVal(-1))
	}
	for i := 0; i < n; i++ {
		m[string(couchKey(i%couchKeys))] = string(couchVal(i))
	}
	return m
}

func (s *couchStack) Verify(committed, attempted int) error {
	got := make(map[string]string, couchKeys)
	for i := 0; i < couchKeys; i++ {
		v, ok, err := s.store.Get(s.task, couchKey(i))
		if err != nil {
			return fmt.Errorf("read %s: %v", couchKey(i), err)
		}
		if !ok {
			return fmt.Errorf("doc %s missing after recovery", couchKey(i))
		}
		got[string(couchKey(i))] = string(v)
	}
	return diffStates(got, s.couchModel(committed), s.couchModel(attempted))
}

// ---------------------------------------------------------------------------
// sqlmini

// sqlKeys rows of ~200 bytes spread over several 1 KB btree pages, so a
// transaction's dirty set (leaves, their parent, the meta page) makes a
// multi-page SHARE batch.
const sqlKeys = 17

type sqlStack struct {
	task *sim.Task
	data *ssd.Device
	db   *sqlmini.DB
	cfg  sqlmini.Config
}

// NewSqlShare builds a sqlmini stack in journal-off SHARE mode — stage
// once, sync, remap — with 1 KB engine pages (two device pages each) and
// sqlKeys rows preloaded in one transaction.
func NewSqlShare() (Stack, error) {
	data, err := newDataDevice("cc-sql")
	if err != nil {
		return nil, err
	}
	task := sim.NewSoloTask("crashcheck")
	fs, err := fsim.Format(task, data, 32)
	if err != nil {
		return nil, err
	}
	cfg := sqlmini.Config{Mode: sqlmini.Share, PageSize: 1024, CacheBytes: 16 * 1024}
	db, err := sqlmini.Open(task, fs, cfg)
	if err != nil {
		return nil, err
	}
	if err := db.Update(task, func(tx *sqlmini.Tx) error {
		for i := 0; i < sqlKeys; i++ {
			if err := tx.Put(sqlKey(i), sqlVal(-1)); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}
	return &sqlStack{task: task, data: data, db: db, cfg: cfg}, nil
}

func sqlKey(i int) []byte { return []byte(fmt.Sprintf("row%02d", i)) }

// sqlVal pads values so the rows fill several btree pages.
func sqlVal(i int) []byte {
	v := make([]byte, 200)
	copy(v, fmt.Sprintf("txn%03d-", i))
	for j := 8; j < len(v); j++ {
		v[j] = byte(i + j)
	}
	return v
}

// sqlTxnKeys returns the rows transaction i updates: spread across pages
// so a torn multi-page commit would be visible.
func sqlTxnKeys(i int) []int {
	return []int{i % sqlKeys, (i*5 + 2) % sqlKeys, (i*11 + 7) % sqlKeys}
}

func (s *sqlStack) Devices() []*ssd.Device { return []*ssd.Device{s.data} }

func (s *sqlStack) Step(i int) error {
	return s.db.Update(s.task, func(tx *sqlmini.Tx) error {
		for _, k := range sqlTxnKeys(i) {
			if err := tx.Put(sqlKey(k), sqlVal(i)); err != nil {
				return err
			}
		}
		return nil
	})
}

func (s *sqlStack) Reopen() error {
	s.data.Crash()
	if err := s.data.Recover(s.task); err != nil {
		return err
	}
	fs, err := fsim.Mount(s.task, s.data)
	if err != nil {
		return err
	}
	db, err := sqlmini.Open(s.task, fs, s.cfg)
	if err != nil {
		return err
	}
	s.db = db
	return nil
}

// sqlModel is the oracle state after the first n transactions.
func sqlModel(n int) map[string]string {
	m := make(map[string]string, sqlKeys)
	for i := 0; i < sqlKeys; i++ {
		m[string(sqlKey(i))] = string(sqlVal(-1))
	}
	for i := 0; i < n; i++ {
		for _, k := range sqlTxnKeys(i) {
			m[string(sqlKey(k))] = string(sqlVal(i))
		}
	}
	return m
}

func (s *sqlStack) Verify(committed, attempted int) error {
	got := make(map[string]string, sqlKeys)
	for i := 0; i < sqlKeys; i++ {
		v, ok, err := s.db.Get(s.task, sqlKey(i))
		if err != nil {
			return fmt.Errorf("read %s: %v", sqlKey(i), err)
		}
		if !ok {
			return fmt.Errorf("row %s missing after recovery", sqlKey(i))
		}
		got[string(sqlKey(i))] = string(v)
	}
	return diffStates(got, sqlModel(committed), sqlModel(attempted))
}

// ---------------------------------------------------------------------------
// couch on aging media under patrol scrubbing

const (
	// couchPatrolIdle is declared per transaction so retention risk climbs
	// fast enough that blocks keep crossing the patrol threshold.
	couchPatrolIdle = 150 * sim.Millisecond
	// couchPatrolSteps patrol steps run after every transaction.
	couchPatrolSteps = 2
)

// newAgingDataDevice builds the couch data device on endogenously decaying
// media tuned for crash testing: retention pulls blocks over the (lowered)
// patrol threshold within a few transactions so refreshes are frequent,
// while the effectively infinite retry/soft ECC limits guarantee every read
// stays recoverable. The point is to power-cut inside patrol refresh
// relocation/erase windows — never to lose data, which would change the
// durability oracle's semantics.
func newAgingDataDevice(name string) (*ssd.Device, error) {
	cfg := ssd.DefaultConfig(512)
	cfg.Geometry.PageSize = 512
	cfg.Geometry.PagesPerBlock = 32
	cfg.Media = &nand.MediaModel{
		Seed:            3,
		WearWeight:      1,
		DisturbWeight:   2,
		RetentionWeight: 400,
		RetentionUnit:   sim.Second,
		PageNoise:       20,
		FastLimit:       600,
		RetryLimit:      1 << 40,
		SoftLimit:       1 << 41,
	}
	cfg.FTL.PatrolThresholdPct = 50
	return ssd.New(name, cfg)
}

// couchPatrolStack ages its data device and drives the background patrol
// scrubber between transactions, so the crash matrix's program/erase
// boundary space includes points inside patrol refresh windows (a refresh
// relocates a whole block's live pages and erases it).
type couchPatrolStack struct {
	couchStack
}

// NewCouchPatrol builds a couch stack on aging media whose Step interleaves
// patrol scrubbing with the workload.
func NewCouchPatrol() (Stack, error) {
	data, err := newAgingDataDevice("cc-couch-patrol")
	if err != nil {
		return nil, err
	}
	task := sim.NewSoloTask("crashcheck")
	fs, err := fsim.Format(task, data, 32)
	if err != nil {
		return nil, err
	}
	cfg := couch.Config{BatchSize: 1, ShareMode: true}
	st, err := couch.Open(task, fs, cfg)
	if err != nil {
		return nil, err
	}
	for i := 0; i < couchKeys; i++ {
		if err := st.Set(task, couchKey(i), couchVal(-1)); err != nil {
			return nil, err
		}
	}
	return &couchPatrolStack{couchStack{task: task, data: data, store: st, cfg: cfg}}, nil
}

func (s *couchPatrolStack) Step(i int) error {
	if err := s.couchStack.Step(i); err != nil {
		return err
	}
	// Retained data ages between transactions, then the patrol gets its
	// duty-cycle slice. A power cut armed on the device fires inside these
	// refresh windows exactly as it does inside foreground commits.
	s.data.AdvanceMediaTime(couchPatrolIdle)
	for k := 0; k < couchPatrolSteps; k++ {
		if _, err := s.data.PatrolStep(s.task); err != nil {
			return err
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// innodb + flash-extended cache tier

// innoCacheKeys spreads the workload over enough btree pages that the
// deliberately tiny buffer pool keeps evicting through the cache tier.
const innoCacheKeys = 33

// newCacheDevice builds the dedicated flash-extended cache device: small
// and fast, contributing its own program/erase boundary space (cache
// fills, mapping-journal appends, map checkpoints, writebacks) to the
// crash matrix. spares, when non-zero, shrinks the block-retirement
// budget so injected permanent faults degrade it to read-only mid-run.
func newCacheDevice(name string, spares int) (*ssd.Device, error) {
	cfg := ssd.DefaultConfig(128)
	cfg.Geometry.PageSize = 512
	cfg.Geometry.PagesPerBlock = 32
	cfg.Timing = nand.Timing{
		ReadPage: 25 * sim.Microsecond,
		Program:  200 * sim.Microsecond,
		Erase:    1000 * sim.Microsecond,
		Transfer: 5 * sim.Microsecond,
	}
	if spares != 0 {
		cfg.FTL.SpareBlocks = spares
	}
	return ssd.New(name, cfg)
}

type innoCacheStack struct {
	task  *sim.Task
	data  *ssd.Device
	log   *ssd.Device
	cache *ssd.Device
	eng   *innodb.Engine
	tbl   *innodb.Table
	cfg   innodb.Config
}

// NewInnoDBCache builds an innodb stack with a flash-extended cache tier:
// data device + fsim + fast WAL device + dedicated cache device, and a
// buffer pool small enough that reads and flushes constantly spill
// through the cache. writeBack selects the durable-dirty cache mode
// (flush batches absorbed by the cache, written home at checkpoints);
// fault, when non-nil, installs a NAND fault plan on the cache device
// after the preload; cacheSpares, when non-zero, shrinks the cache
// device's block-retirement budget so injected permanent faults drive it
// into read-only degradation mid-run.
func NewInnoDBCache(writeBack bool, fault *nand.FaultPlan, cacheSpares int) (Stack, error) {
	data, err := newDataDevice("cc-innocache-data")
	if err != nil {
		return nil, err
	}
	task := sim.NewSoloTask("crashcheck")
	fs, err := fsim.Format(task, data, 32)
	if err != nil {
		return nil, err
	}
	logDev, err := newLogDevice("cc-innocache-log")
	if err != nil {
		return nil, err
	}
	cacheDev, err := newCacheDevice("cc-innocache-cache", cacheSpares)
	if err != nil {
		return nil, err
	}
	cfg := innodb.Config{
		PageSize:       1024,
		PoolBytes:      8 * 1024, // 8 frames: every step evicts through the cache
		FlushMode:      innodb.DWBOn,
		DWBPages:       8,
		DataBytes:      1024 * 1024,
		LogPages:       2048,
		CacheDev:       cacheDev,
		CacheWriteBack: writeBack,
	}
	eng, err := innodb.Open(task, fs, logDev, cfg)
	if err != nil {
		return nil, err
	}
	tbl, err := eng.CreateTable(task, "t")
	if err != nil {
		return nil, err
	}
	// Preload one key per transaction: the no-steal protocol protects a
	// transaction's dirty pages until commit, and the pool is deliberately
	// far smaller than the 33-key working set.
	for i := 0; i < innoCacheKeys; i++ {
		tx := eng.Begin(task)
		if err := tx.Put(tbl, innoCacheKey(i), innoCacheVal(-1)); err != nil {
			return nil, err
		}
		if err := tx.Commit(); err != nil {
			return nil, err
		}
	}
	if err := eng.Checkpoint(task); err != nil {
		return nil, err
	}
	if fault != nil {
		if err := cacheDev.SetFaultPlan(fault); err != nil {
			return nil, err
		}
	}
	return &innoCacheStack{task: task, data: data, log: logDev, cache: cacheDev,
		eng: eng, tbl: tbl, cfg: cfg}, nil
}

func innoCacheKey(i int) []byte { return []byte(fmt.Sprintf("ck%03d", i)) }

// innoCacheVal pads values to ~200 bytes so the working set spans far
// more pages than the pool holds — every transaction drives evictions
// (cache fills) and pool misses (cache reads).
func innoCacheVal(i int) []byte {
	v := make([]byte, 200)
	copy(v, fmt.Sprintf("txn%03d-", i))
	for j := 8; j < len(v); j++ {
		v[j] = byte(i*3 + j)
	}
	return v
}

// innoCacheTxnKeys returns the three keys transaction i updates.
func innoCacheTxnKeys(i int) []int {
	return []int{i % innoCacheKeys, (i*5 + 1) % innoCacheKeys, (i*11 + 3) % innoCacheKeys}
}

// Devices exposes all three tiers: the matrix power-cuts the cache
// device's fill/journal/checkpoint/writeback boundaries just like the
// data and log devices' commit boundaries.
func (s *innoCacheStack) Devices() []*ssd.Device {
	return []*ssd.Device{s.data, s.log, s.cache}
}

func (s *innoCacheStack) Step(i int) error {
	tx := s.eng.Begin(s.task)
	for _, k := range innoCacheTxnKeys(i) {
		if err := tx.Put(s.tbl, innoCacheKey(k), innoCacheVal(i)); err != nil {
			tx.Rollback()
			return err
		}
	}
	if err := tx.Commit(); err != nil {
		return err
	}
	// Read a stride of keys so pool misses exercise the cache read path
	// (verify-on-read) between commits, not just the fill path.
	rtx := s.eng.Begin(s.task)
	for k := 0; k < 3; k++ {
		if _, _, err := rtx.Get(s.tbl, innoCacheKey((i*7+k*13)%innoCacheKeys)); err != nil {
			rtx.Rollback()
			return err
		}
	}
	rtx.Rollback()
	if (i+1)%innoCkptStep == 0 {
		return s.eng.Checkpoint(s.task)
	}
	return nil
}

func (s *innoCacheStack) Reopen() error {
	for _, d := range s.Devices() {
		d.Crash()
		if err := d.Recover(s.task); err != nil {
			return err
		}
	}
	fs, err := fsim.Mount(s.task, s.data)
	if err != nil {
		return err
	}
	eng, err := innodb.Open(s.task, fs, s.log, s.cfg)
	if err != nil {
		return err
	}
	s.eng = eng
	s.tbl = eng.Table("t")
	if s.tbl == nil {
		return fmt.Errorf("table lost across recovery")
	}
	return nil
}

// innoCacheModel is the oracle state after the first n transactions.
func innoCacheModel(n int) map[string]string {
	m := make(map[string]string, innoCacheKeys)
	for i := 0; i < innoCacheKeys; i++ {
		m[string(innoCacheKey(i))] = string(innoCacheVal(-1))
	}
	for i := 0; i < n; i++ {
		for _, k := range innoCacheTxnKeys(i) {
			m[string(innoCacheKey(k))] = string(innoCacheVal(i))
		}
	}
	return m
}

func (s *innoCacheStack) Verify(committed, attempted int) error {
	got := make(map[string]string, innoCacheKeys)
	tx := s.eng.Begin(s.task)
	for i := 0; i < innoCacheKeys; i++ {
		v, ok, err := tx.Get(s.tbl, innoCacheKey(i))
		if err != nil {
			tx.Rollback()
			return fmt.Errorf("read %s: %v", innoCacheKey(i), err)
		}
		if !ok {
			tx.Rollback()
			return fmt.Errorf("key %s missing after recovery", innoCacheKey(i))
		}
		got[string(innoCacheKey(i))] = string(v)
	}
	tx.Rollback()
	return diffStates(got, innoCacheModel(committed), innoCacheModel(attempted))
}
