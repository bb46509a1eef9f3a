package crashcheck

import (
	"testing"

	"share/internal/innodb"
	"share/internal/nand"
	"share/internal/pgmini"
)

// Transaction counts per workload. Small enough that the exhaustive
// boundary space stays tractable, large enough to cross several engine
// checkpoints and couch batch commits.
const (
	innoTxns        = 24
	pgTxns          = 24
	couchTxns       = 26
	couchPatrolTxns = 14
	sqlTxns         = 24
)

func TestCrashMatrixInnoDBDWB(t *testing.T) {
	Matrix(t, "innodb/dwb", func() (Stack, error) { return NewInnoDB(innodb.DWBOn) }, innoTxns)
}

func TestCrashMatrixInnoDBShare(t *testing.T) {
	Matrix(t, "innodb/share", func() (Stack, error) { return NewInnoDB(innodb.Share) }, innoTxns)
}

func TestCrashMatrixPgFPW(t *testing.T) {
	Matrix(t, "pgmini/fpw", func() (Stack, error) { return NewPg(pgmini.FPWOn, pgTxns) }, pgTxns)
}

func TestCrashMatrixPgShare(t *testing.T) {
	Matrix(t, "pgmini/share", func() (Stack, error) { return NewPg(pgmini.FPWShare, pgTxns) }, pgTxns)
}

func TestCrashMatrixCouchCopy(t *testing.T) {
	Matrix(t, "couch/copy", func() (Stack, error) { return NewCouch(false) }, couchTxns)
}

func TestCrashMatrixCouchShare(t *testing.T) {
	Matrix(t, "couch/share", func() (Stack, error) { return NewCouch(true) }, couchTxns)
}

// TestCrashMatrixSqlShare power-cuts sqlmini's journal-off SHARE commit:
// a transaction's pages are staged, synced and remapped home in one SHARE
// batch, so every cut must leave each transaction wholly present or
// wholly absent with no journal to fall back on.
func TestCrashMatrixSqlShare(t *testing.T) {
	Matrix(t, "sqlmini/share", NewSqlShare, sqlTxns)
}

// TestCrashMatrixCouchPatrol power-cuts inside patrol-scrub refresh windows:
// the stack runs on aging media with the patrol scrubber interleaved between
// transactions, so block refreshes (relocate + erase) are part of the
// measured boundary space and the matrix crashes inside them. A preliminary
// clean run proves the patrol actually refreshes blocks under this tuning —
// otherwise the matrix would be the plain couch test wearing a costume.
func TestCrashMatrixCouchPatrol(t *testing.T) {
	build := func() (Stack, error) { return NewCouchPatrol() }
	s, err := build()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < couchPatrolTxns; i++ {
		if err := s.Step(i); err != nil {
			t.Fatalf("clean patrol run step %d: %v", i, err)
		}
	}
	st := s.Devices()[0].LifetimeStats()
	if st.FTL.PatrolRefreshes == 0 {
		t.Fatal("patrol never refreshed a block; the crash matrix would not cover refresh windows")
	}
	if st.FTL.UncorrectableReads != 0 || st.FTL.LostPages != 0 {
		t.Fatalf("aging model lost data in the clean run (uncorrectable %d, lost pages %d); "+
			"crash tests require fully recoverable media", st.FTL.UncorrectableReads, st.FTL.LostPages)
	}
	Matrix(t, "couch/patrol", build, couchPatrolTxns)
}

// faultPlan builds the standard absorbable-fault schedule used by the
// per-engine fault runs: a transient program fault, a permanent program
// failure (block retirement mid-workload), an ECC-corrected read and an
// ECC-uncorrectable read that the FTL read-retry path recovers.
func faultPlan(seed int64) *nand.FaultPlan {
	return nand.NewFaultPlan(seed).
		AtProgram(5, nand.FaultProgramTransient).
		AtProgram(40, nand.FaultProgramPermanent).
		AtRead(9, nand.FaultReadCorrectable).
		AtRead(25, nand.FaultReadUncorrectable)
}

func TestFaultPlanInnoDB(t *testing.T) {
	for _, mode := range []innodb.FlushMode{innodb.DWBOn, innodb.Share} {
		s, err := NewInnoDB(mode)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Devices()[0].SetFaultPlan(faultPlan(7)); err != nil {
			t.Fatal(err)
		}
		FaultRun(t, "innodb/"+mode.String(), s, innoTxns)
	}
}

func TestFaultPlanPg(t *testing.T) {
	for _, mode := range []pgmini.Mode{pgmini.FPWOn, pgmini.FPWShare} {
		s, err := NewPg(mode, pgTxns)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Devices()[0].SetFaultPlan(faultPlan(11)); err != nil {
			t.Fatal(err)
		}
		FaultRun(t, "pgmini", s, pgTxns)
	}
}

func TestFaultPlanCouch(t *testing.T) {
	for _, share := range []bool{false, true} {
		s, err := NewCouch(share)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Devices()[0].SetFaultPlan(faultPlan(13)); err != nil {
			t.Fatal(err)
		}
		FaultRun(t, "couch", s, couchTxns)
	}
}

// TestCrashConcurrentInnoDBDWB and ...Share are the concurrent-session
// crash cells: four scheduler sessions commit multi-key transactions
// through the group-commit path while the power cut lands — including
// inside coalesced log flushes carrying several commit records — and the
// partitioned oracle checks per-session atomicity and durability.
func TestCrashConcurrentInnoDBDWB(t *testing.T) {
	ConcurrentMatrix(t, "innodb-conc/dwb", innodb.DWBOn)
}

func TestCrashConcurrentInnoDBShare(t *testing.T) {
	ConcurrentMatrix(t, "innodb-conc/share", innodb.Share)
}
