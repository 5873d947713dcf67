package shard

import (
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"time"

	"crackdb"
	"crackdb/internal/durable"
)

// Checkpoint chains for the sharded store. Every checkpoint writes one
// chain element directory into the data dir:
//
//	dir/store/          element 0 (full checkpoint): every shard
//	dir/delta-000001/   next element: the shards dirty since the
//	                    previous element
//	dir/delta-000002/   ...
//
// Each holds delta.json — the element's WAL stamp, its shard list, the
// router manifest as of the element (so tables created after element 0
// boot correctly), and the CRC-32 of its predecessor's delta.json (0 for
// element 0) — plus a shard-K/ crackdb element for each listed shard.
// Boot resolves the chain: superseded elements (covered by a newer full
// image) are deleted, every element's shard list is checked against its
// directory, the checksum links are verified end to end, and each shard
// opens exactly the elements that carry it (crackdb.OpenWarmChain). An
// element that fails verification refuses the boot — a half-trusted
// chain must never silently serve cold. A store/ written before the
// element format holds shard.json instead; readElem adapts it into
// element 0 with the manifest's CRC as its sum, so older chains link.
//
// Compaction folds the chain back into a full image when it grows past
// deltaCompactEvery deltas or past half of element 0's size: chains stay
// short, so boot and follower bootstrap never walk unbounded history.

const (
	deltaDirPrefix    = "delta-"
	deltaManifestName = "delta.json"

	// deltaCompactEvery bounds the number of deltas over element 0;
	// cumulative delta bytes are bounded at half of element 0's.
	deltaCompactEvery = 8
)

// deltaManifest is the on-disk description of one chain element.
type deltaManifest struct {
	Version int            `json:"version"`
	Seq     uint64         `json:"seq"`      // WAL stamp (rotation point)
	PrevSum uint32         `json:"prev_sum"` // CRC-32 of the predecessor, 0 for element 0
	Dirty   []int          `json:"dirty"`    // shards with a shard-K/ subdir, ascending
	Router  routerManifest `json:"router"`   // routing state at the element
}

// chainElem is one resolved on-disk element.
type chainElem struct {
	name    string // directory name under the data dir ("store", "delta-000001")
	ord     int    // 0 for element 0
	seq     uint64
	sum     uint32 // CRC-32 of this element's manifest
	prevSum uint32 // the predecessor this element links to
	dirty   []int
	router  routerManifest
	bytes   int64 // total size of the element directory
}

func deltaDirName(ord int) string {
	return fmt.Sprintf("%s%06d", deltaDirPrefix, ord)
}

// SetCheckpointDelta selects the default Checkpoint mode: on, /save
// without an argument writes a differential element (escalating to a
// full image when the compaction policy triggers); off (the default), it
// writes a full image. The cracksrv -ckptdelta flag.
func (s *Store) SetCheckpointDelta(on bool) {
	s.walMu.Lock()
	defer s.walMu.Unlock()
	s.ckptDelta = on
}

// SetWALArchiveRetain bounds how many rotated WAL segments checkpoints
// keep as replication history (durable.WAL.SetArchiveRetain; the
// cracksrv -walretain flag). No-op on a volatile store.
func (s *Store) SetWALArchiveRetain(n int) {
	s.walMu.RLock()
	defer s.walMu.RUnlock()
	if s.wal != nil {
		s.wal.SetArchiveRetain(n)
	}
}

// SetWALPruneFloor protects archived WAL segments still needed by the
// slowest connected follower (durable.WAL.SetPruneFloor). The server
// recomputes it from follower acks; MaxUint64 clears the protection.
func (s *Store) SetWALPruneFloor(seq uint64) {
	s.walMu.RLock()
	defer s.walMu.RUnlock()
	if s.wal != nil {
		s.wal.SetPruneFloor(seq)
	}
}

// CheckpointMode writes a checkpoint in the requested mode — "full",
// "delta", or "" for the store's configured default — and returns the
// mode that actually ran: "delta" escalates to "full" when there is no
// base image yet, when the compaction policy triggers, or when a shard
// cannot anchor a delta to its last save.
func (s *Store) CheckpointMode(mode string) (string, error) {
	s.walMu.Lock()
	defer s.walMu.Unlock()
	if s.wal == nil || s.dataDir == "" {
		return "", fmt.Errorf("shard: store is not durable (no data directory)")
	}
	switch mode {
	case "":
		mode = "full"
		if s.ckptDelta {
			mode = "delta"
		}
	case "full", "delta":
	default:
		return "", fmt.Errorf("shard: unknown checkpoint mode %q (want full or delta)", mode)
	}
	if o := s.obsv.Load(); o != nil {
		t0 := time.Now()
		defer func() { o.checkpointNS.Observe(time.Since(t0).Nanoseconds()) }()
	}
	if mode == "delta" {
		ran, err := s.checkpointDeltaLocked()
		if err != nil {
			return "delta", err
		}
		if ran {
			return "delta", nil
		}
	}
	return "full", s.checkpointFullLocked()
}

// checkpointFullLocked writes a new element 0, retires the chain it
// supersedes, and rotates the WAL. Caller holds walMu exclusively.
func (s *Store) checkpointFullLocked() error {
	seq := s.wal.Seq()
	e, err := s.writeElementLocked(filepath.Join(s.dataDir, dataStoreDir), 0, s.allShards())
	if err != nil {
		return err
	}
	// The new element 0 covers every delta; remove them before rotating
	// so a crash leaves either chain or base authoritative, never a base
	// with unlinked newer elements. A crash before the removals leaves
	// superseded elements (older stamps, or unlinked at the base's
	// stamp), which boot's resolveChain deletes.
	for _, old := range s.chain {
		if old.ord > 0 {
			os.RemoveAll(filepath.Join(s.dataDir, old.name))
		}
	}
	s.chain = []chainElem{e}
	return s.wal.Rotate(seq)
}

// checkpointDeltaLocked writes one chain element carrying only the
// shards that changed since their last save. Returns false (and no
// error) when the caller should escalate to a full image instead.
func (s *Store) checkpointDeltaLocked() (bool, error) {
	if len(s.chain) == 0 {
		return false, nil // no base image yet
	}
	var deltaBytes int64
	for _, e := range s.chain[1:] {
		deltaBytes += e.bytes
	}
	if len(s.chain) > deltaCompactEvery || deltaBytes >= s.chain[0].bytes/2 {
		return false, nil // compaction due
	}
	seq := s.wal.Seq()
	var dirty []int
	for i, st := range s.shards {
		if st.DirtySinceSave() {
			dirty = append(dirty, i)
		}
	}
	if len(dirty) == 0 && seq == s.wal.Status().BaseSeq {
		return true, nil // nothing changed since the last checkpoint
	}
	last := s.chain[len(s.chain)-1]
	e, err := s.writeElementLocked(filepath.Join(s.dataDir, deltaDirName(last.ord+1)), last.sum, dirty)
	if err != nil {
		return false, nil // the shard marks were dropped: a full image re-anchors them
	}
	e.ord = last.ord + 1
	s.chain = append(s.chain, e)
	return true, s.wal.Rotate(seq)
}

// allShards lists every shard index: element 0's shard set.
func (s *Store) allShards() []int {
	all := make([]int, len(s.shards))
	for i := range all {
		all[i] = i
	}
	return all
}

// writeElementLocked writes one chain element into dir, atomically
// replacing any previous content: delta.json plus a shard-K/ crackdb
// element for each shard in dirty. With no predecessor (prev 0) that is
// each shard's element 0 (SaveWarm), otherwise its delta over its last
// save (SaveDelta). Full and delta checkpoints differ only in dir, prev
// and the shard set. On failure every shard's save mark is dropped — the
// marks may no longer match what reached disk, so the next delta
// escalates to a full image. Caller holds walMu exclusively.
func (s *Store) writeElementLocked(dir string, prev uint32, dirty []int) (chainElem, error) {
	var seq uint64
	if s.wal != nil {
		seq = s.wal.Seq()
	}
	dm := deltaManifest{Version: 1, Seq: seq, PrevSum: prev, Dirty: dirty, Router: s.routerManifestLocked(seq)}
	data, err := json.MarshalIndent(dm, "", "  ")
	if err != nil {
		return chainElem{}, err
	}
	err = durable.AtomicReplaceDir(dir, func(tmp string) error {
		for _, i := range dirty {
			save := s.shards[i].SaveDelta
			if prev == 0 {
				save = s.shards[i].SaveWarm
			}
			if err := save(filepath.Join(tmp, fmt.Sprintf("shard-%d", i))); err != nil {
				return fmt.Errorf("shard %d: %w", i, err)
			}
		}
		return os.WriteFile(filepath.Join(tmp, deltaManifestName), data, 0o644)
	})
	if err != nil {
		for _, st := range s.shards {
			st.InvalidateSaveMark()
		}
		return chainElem{}, err
	}
	return chainElem{name: filepath.Base(dir), seq: seq, sum: crc32.ChecksumIEEE(data),
		prevSum: prev, dirty: dirty, router: dm.Router, bytes: dirSize(dir)}, nil
}

// readElem reads the manifest of chain element dir/name (ord 0 for
// element 0); ok is false when there is no element there. An element 0
// written before the element format holds shard.json instead: it is
// adapted to list every shard, with the CRC-32 of shard.json — what the
// deltas written over it link to — as its sum.
func readElem(dir, name string, ord int) (e chainElem, ok bool, err error) {
	path := filepath.Join(dir, name)
	durable.RecoverDirSwap(path, deltaManifestName, legacyRouterName)
	var dm deltaManifest
	data, err := os.ReadFile(filepath.Join(path, deltaManifestName))
	if err == nil {
		err = json.Unmarshal(data, &dm)
	} else if os.IsNotExist(err) && ord == 0 {
		if data, err = os.ReadFile(filepath.Join(path, legacyRouterName)); err == nil {
			err = json.Unmarshal(data, &dm.Router)
			dm.Version, dm.Seq = 1, dm.Router.AppliedSeq
			for i := 0; i < dm.Router.Shards; i++ {
				dm.Dirty = append(dm.Dirty, i)
			}
		}
	}
	if os.IsNotExist(err) {
		return e, false, nil
	}
	if err != nil {
		return e, false, fmt.Errorf("shard: corrupt element manifest in %s: %w", name, err)
	}
	if dm.Version != 1 {
		return e, false, fmt.Errorf("shard: unsupported delta version %d in %s", dm.Version, name)
	}
	return chainElem{name: name, ord: ord, seq: dm.Seq, sum: crc32.ChecksumIEEE(data),
		prevSum: dm.PrevSum, dirty: dm.Dirty, router: dm.Router, bytes: dirSize(path)}, true, nil
}

// checkShardDirs refuses an element whose shard list disagrees with its
// directory: an entry out of range, unsorted or repeated, a listed
// shard-K/ that is missing, or a shard-K/ the list leaves out. Element 0
// must list every shard. Nothing else vouches for the tip element's
// manifest — no successor checks its checksum — so an edited list would
// otherwise drop acked rows without a word.
func checkShardDirs(path string, e chainElem) error {
	entries, err := os.ReadDir(path)
	if err != nil {
		return err
	}
	present := make(map[int]bool)
	for _, ent := range entries {
		var k int
		if _, err := fmt.Sscanf(ent.Name(), "shard-%d", &k); err == nil && ent.IsDir() && ent.Name() == fmt.Sprintf("shard-%d", k) {
			present[k] = true
		}
	}
	for j, k := range e.dirty {
		if k < 0 || k >= e.router.Shards || (j > 0 && k <= e.dirty[j-1]) {
			return fmt.Errorf("shard: element %s lists shards %v: out of range, unsorted or repeated", e.name, e.dirty)
		}
		if !present[k] {
			return fmt.Errorf("shard: element %s lists shard-%d, which is missing", e.name, k)
		}
		delete(present, k)
	}
	for k := range present {
		return fmt.Errorf("shard: element %s holds shard-%d, which its manifest does not list", e.name, k)
	}
	if e.ord == 0 && len(e.dirty) != e.router.Shards {
		return fmt.Errorf("shard: element %s lists %d of %d shards; element 0 carries them all", e.name, len(e.dirty), e.router.Shards)
	}
	return nil
}

// resolveChain scans the data dir for its chain — element 0 in store/,
// deltas in delta-* — deletes the deltas a newer full image superseded,
// and verifies the checksum links end to end. Called at boot, before
// any store state exists.
//
// Supersession cannot be decided by seq alone: a live element written
// after crack-only changes carries the base's own stamp (no WAL record
// advanced the seq), and so does residue from a full checkpoint that
// crashed between the base swap and the chain cleanup. An element
// strictly older than the base is always residue; one at the base's
// stamp is residue exactly when it does not link into the chain growing
// out of the base's checksum.
func resolveChain(dir string) ([]chainElem, error) {
	base, baseExists, err := readElem(dir, dataStoreDir, 0)
	if err != nil {
		return nil, err
	}
	matches, err := filepath.Glob(filepath.Join(dir, deltaDirPrefix+"*"))
	if err != nil {
		return nil, err
	}
	var elems []chainElem
	for _, m := range matches {
		name := filepath.Base(m)
		var ord int
		if _, err := fmt.Sscanf(name, deltaDirPrefix+"%d", &ord); err != nil || ord < 1 || deltaDirName(ord) != name {
			continue // .old residue, tmp dirs, foreign names
		}
		e, ok, err := readElem(dir, name, ord)
		if err != nil {
			return nil, err
		}
		if !ok {
			// A directory without its manifest cannot be a completed
			// element (the swap is atomic): writer residue, remove.
			os.RemoveAll(m)
			continue
		}
		elems = append(elems, e)
	}
	if !baseExists {
		if len(elems) > 0 {
			return nil, fmt.Errorf("shard: delta chain present but no base image under %s — refusing to boot cold over existing checkpoints", dir)
		}
		return nil, nil
	}
	if base.prevSum != 0 {
		return nil, fmt.Errorf("shard: base image links predecessor %08x; element 0 has none", base.prevSum)
	}
	sort.Slice(elems, func(i, j int) bool { return elems[i].ord < elems[j].ord })
	live := []chainElem{base}
	for _, e := range elems {
		prev := live[len(live)-1]
		if e.seq < base.seq || (e.seq == base.seq && e.prevSum != prev.sum) {
			// A newer full image covers this element: every live element
			// was written at or after the base's stamp (the base's full
			// checkpoint rotated the WAL to it) and links into the chain
			// anchored at the base's checksum. Anything else is residue
			// from a crash between the base swap and the chain cleanup.
			os.RemoveAll(filepath.Join(dir, e.name))
			continue
		}
		if e.prevSum != prev.sum {
			return nil, fmt.Errorf("shard: delta chain broken: %s links predecessor %08x, but %s is %08x",
				e.name, e.prevSum, prev.name, prev.sum)
		}
		live = append(live, e)
	}
	return live, nil
}

// openChain boots a store from a resolved chain: every element's shard
// list is checked against its directory, the final element's router
// manifest is authoritative for routing, and each shard applies exactly
// the elements that carry it, element 0 first.
func openChain(dir string, elems []chainElem) (*Store, uint64, error) {
	final := elems[len(elems)-1]
	s, err := storeFromRouterManifest(final.router)
	if err != nil {
		return nil, 0, err
	}
	for _, e := range elems {
		if err := checkShardDirs(filepath.Join(dir, e.name), e); err != nil {
			return nil, 0, err
		}
	}
	for i := range s.shards {
		var dirs []string
		for _, e := range elems {
			if slices.Contains(e.dirty, i) {
				dirs = append(dirs, filepath.Join(dir, e.name, fmt.Sprintf("shard-%d", i)))
			}
		}
		if len(dirs) == 0 {
			return nil, 0, fmt.Errorf("shard %d: no element carries it", i)
		}
		st, _, err := crackdb.OpenWarmChain(dirs[0], dirs[1:])
		if err != nil {
			return nil, 0, fmt.Errorf("shard %d: %w", i, err)
		}
		s.shards[i] = st
	}
	return s, final.seq, nil
}

// dirSize sums the file sizes under root (best-effort; 0 on error).
func dirSize(root string) int64 {
	var total int64
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return nil
		}
		if info, err := d.Info(); err == nil {
			total += info.Size()
		}
		return nil
	})
	return total
}
