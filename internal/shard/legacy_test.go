package shard_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"testing"

	"crackdb"
	"crackdb/internal/shard"
)

// The fixture under testdata/legacy-chain is a 2-shard durable data dir
// written before the element format: store/ holds shard.json and, per
// shard, crackdb.json + BAT images + a CRKS crackstate.crk;
// delta-000001/ holds shard 0 only; wal.log holds two records past it.
// It was produced by this sequence (static range split at key 500):
//
//	OpenDurable(dir, legacyOpts); SetCrackStrategy("ddc", 7)
//	CREATE TABLE t (k, v)
//	insert (2i, i%7) for i in [0, 100) and (500+i, i%7) for i in [0, 500)
//	range counts [lo, lo+60) for lo = 0, 90, ... < 1000; DELETE WHERE v = 3
//	CheckpointMode("full")
//	insert (1,1) (3,2) (5,3); range counts [lo, lo+40) for lo = 0, 35, ... < 200
//	CheckpointMode("delta")
//	insert (901,4) (903,5); DELETE WHERE k = 2          (WAL only)
func legacyOpts() shard.Options {
	return shard.Options{Shards: 2, Kind: shard.Range, Domain: [2]int64{0, 1000}, StaticRangeBounds: true}
}

// legacyRows is the fixture's live row set.
func legacyRows() [][]int64 {
	var rows [][]int64
	for i := int64(0); i < 100; i++ {
		if i%7 != 3 && i != 1 { // v = 3 deleted, then k = 2
			rows = append(rows, []int64{2 * i, i % 7})
		}
	}
	for i := int64(0); i < 500; i++ {
		if i%7 != 3 {
			rows = append(rows, []int64{500 + i, i % 7})
		}
	}
	return append(rows, []int64{1, 1}, []int64{3, 2}, []int64{5, 3}, []int64{901, 4}, []int64{903, 5})
}

// copyTree copies the fixture into a scratch data dir (boot writes to it).
func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), data, 0o644)
	})
	mustExec(t, err)
}

// checkLegacyCounts answers range, residual and point counts against a
// naive scan of legacyRows.
func checkLegacyCounts(t *testing.T, s *shard.Store, stage string) {
	t.Helper()
	rows := legacyRows()
	naive := func(lo, hi, v int64) int {
		n := 0
		for _, r := range rows {
			if r[0] >= lo && r[0] < hi && (v < 0 || r[1] == v) {
				n++
			}
		}
		return n
	}
	if n, err := s.NumRows("t"); err != nil || n != len(rows) {
		t.Fatalf("%s: %d rows (err %v), want %d", stage, n, err, len(rows))
	}
	for lo := int64(0); lo < 1000; lo += 45 {
		for _, v := range []int64{-1, 1, 3} {
			conds := []crackdb.Cond{{Col: "k", Op: ">=", Val: lo}, {Col: "k", Op: "<", Val: lo + 75}}
			if v >= 0 {
				conds = append(conds, crackdb.Cond{Col: "v", Op: "=", Val: v})
			}
			got, err := s.CountWhere("t", conds...)
			mustExec(t, err)
			if want := naive(lo, lo+75, v); got != want {
				t.Fatalf("%s: k in [%d,%d) v=%d: count %d, want %d", stage, lo, lo+75, v, got, want)
			}
		}
	}
	for _, k := range []int64{0, 1, 2, 3, 4, 5, 6, 198, 500, 503, 901, 903, 999} {
		got, err := s.CountWhere("t", crackdb.Cond{Col: "k", Op: "=", Val: k})
		mustExec(t, err)
		if want := naive(k, k+1, -1); got != want {
			t.Fatalf("%s: k = %d: count %d, want %d", stage, k, got, want)
		}
	}
}

// TestLegacyDataDirBoots: a data dir written before the element format
// (its base caught mid-swap under store.old) boots through the one
// chain path — shard.json adapted into element 0,
// each shard's crackdb.json + crackstate.crk adapted into its element 0,
// the pre-existing delta linked to them by their old checksums — with
// every acked row and the saved crack state, and then checkpoints and
// reboots in the element format in both modes.
func TestLegacyDataDirBoots(t *testing.T) {
	dir := t.TempDir()
	copyTree(t, filepath.Join("testdata", "legacy-chain"), dir)
	// As if a crash interrupted a directory swap over the legacy base:
	// boot must finish it, recognising the legacy marker (shard.json).
	mustExec(t, os.Rename(filepath.Join(dir, "store"), filepath.Join(dir, "store.old")))

	s, info, err := shard.OpenDurable(dir, legacyOpts())
	mustExec(t, err)
	if !info.Recovered || info.ChainDeltas != 1 || info.AppliedSeq != 5 || info.Replayed != 2 {
		t.Fatalf("legacy boot: %+v, want recovered, 1 delta, seq 5, 2 replayed", info)
	}
	// Shard 1 opens from the legacy base alone: its CRKS crack state
	// (cut set, ddc strategy) must have been restored, not re-derived.
	st, err := s.Shard(1).Stats("t", "k")
	mustExec(t, err)
	if st.Pieces < 4 || st.Strategy != "ddc" {
		t.Fatalf("shard 1 crack state after legacy boot: %d pieces, strategy %q", st.Pieces, st.Strategy)
	}
	checkLegacyCounts(t, s, "legacy boot")

	for _, mode := range []string{"delta", "full"} {
		if got, err := s.CheckpointMode(mode); err != nil || got != mode {
			t.Fatalf("%s checkpoint over the legacy chain: ran %q, err %v", mode, got, err)
		}
		mustExec(t, s.CloseWAL())
		s, info, err = shard.OpenDurable(dir, legacyOpts())
		mustExec(t, err)
		if !info.Recovered || info.Replayed != 0 {
			t.Fatalf("reboot after %s checkpoint: %+v", mode, info)
		}
		checkLegacyCounts(t, s, "reboot after "+mode)
	}
	defer s.CloseWAL()
	if info.ChainDeltas != 0 {
		t.Fatalf("after a full checkpoint the chain still has %d deltas", info.ChainDeltas)
	}
	// The full checkpoint rewrote store/ in the element format.
	for _, gone := range []string{"store/shard.json", "store/shard-0/crackdb.json", "store/shard-1/crackstate.crk", "delta-000001", "delta-000002"} {
		if _, err := os.Stat(filepath.Join(dir, gone)); !os.IsNotExist(err) {
			t.Fatalf("%s survived the full checkpoint (err %v)", gone, err)
		}
	}
	for _, want := range []string{"store/delta.json", "store/shard-0/crackdelta.crk", "store/shard-1/crackdelta.crk"} {
		if _, err := os.Stat(filepath.Join(dir, want)); err != nil {
			t.Fatalf("full checkpoint did not write %s: %v", want, err)
		}
	}
}
