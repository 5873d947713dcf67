package shard

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"crackdb"
	"crackdb/internal/durable"
)

// Sharded persistence. An image is a chain of elements (delta.go), each
// a directory holding delta.json — the router manifest (partition
// kind, per-table routing specs, shard count), the WAL stamp and the
// element's shard list — next to one crackdb chain element per listed
// shard. Element 0 lists every shard and reopens byte-identical: every
// key routes to the same shard, every shard holds the same rows, and
// every cracker column resumes with the same cut set and strategy RNG
// position. OpenDurable adds the WAL on top: boot = the chain in the
// data dir + replay of the log suffix, and Checkpoint (the server's
// /save) atomically writes a new element and rotates the log under full
// mutation exclusion.

// legacyRouterName is the router manifest of an image written before
// the element format; a data dir's store/ may still hold one.
const legacyRouterName = "shard.json"

// Inside a durable data dir:
const (
	dataStoreDir  = "store"   // chain element 0 (a full checkpoint)
	dataWALName   = "wal.log" // the mutation log
	dataBootsName = "boots"   // boot counter (restarts_total = boots-1)
)

// routerManifest is the on-disk description of a sharded store.
type routerManifest struct {
	Version           int                `json:"version"`
	Shards            int                `json:"shards"`
	Kind              Kind               `json:"kind"`
	Domain            [2]int64           `json:"domain"`
	StaticRangeBounds bool               `json:"static_range_bounds,omitempty"`
	AppliedSeq        uint64             `json:"applied_seq"`
	Tables            []routerTableEntry `json:"tables"`
}

type routerTableEntry struct {
	Name   string   `json:"name"`
	Key    string   `json:"key"`
	KeyIdx int      `json:"key_idx"`
	Cols   []string `json:"columns"`
	Seeded bool     `json:"seeded"`
	Part   PartSpec `json:"partition"`
}

// logRecord appends a mutation to the attached WAL, if any. Callers hold
// walMu for reading and must log before applying.
func (s *Store) logRecord(rec durable.Record) error {
	if s.wal == nil {
		return nil
	}
	if _, err := s.wal.Append(rec); err != nil {
		return fmt.Errorf("shard: wal append: %w", err)
	}
	return nil
}

// SaveWarm writes the store's image — chain element 0: the router plus
// every shard's warm image — into dir, atomically replacing any previous
// image there. Differential checkpoints chain only to the data dir's
// images, so the per-shard save marks are dropped: the next delta
// checkpoint escalates to a full one.
func (s *Store) SaveWarm(dir string) error {
	s.walMu.Lock()
	defer s.walMu.Unlock()
	_, err := s.writeElementLocked(dir, 0, s.allShards())
	for _, st := range s.shards {
		st.InvalidateSaveMark()
	}
	return err
}

// routerManifestLocked builds the manifest describing the router as it
// stands, stamped with the given WAL position. The caller holds walMu.
func (s *Store) routerManifestLocked(seq uint64) routerManifest {
	m := routerManifest{
		Version:           1,
		Shards:            len(s.shards),
		Kind:              s.opts.Kind,
		Domain:            s.opts.Domain,
		StaticRangeBounds: s.opts.StaticRangeBounds,
		AppliedSeq:        seq,
	}
	s.mu.RLock()
	for name, tm := range s.tables {
		m.Tables = append(m.Tables, routerTableEntry{
			Name:   name,
			Key:    tm.key,
			KeyIdx: tm.keyIdx,
			Cols:   append([]string(nil), tm.cols...),
			Seeded: tm.seeded,
			Part:   tm.part.spec(),
		})
	}
	s.mu.RUnlock()
	sort.Slice(m.Tables, func(a, b int) bool { return m.Tables[a].Name < m.Tables[b].Name })
	return m
}

// OpenWarm loads an image written by SaveWarm, resuming every shard's
// cracker state, and returns the WAL sequence the image covers.
func OpenWarm(dir string) (*Store, uint64, error) {
	dir = filepath.Clean(dir)
	e, ok, err := readElem(filepath.Dir(dir), filepath.Base(dir), 0)
	if err != nil {
		return nil, 0, err
	}
	if !ok {
		return nil, 0, fmt.Errorf("shard: open store: no image in %s", dir)
	}
	return openChain(filepath.Dir(dir), []chainElem{e})
}

// storeFromRouterManifest validates a manifest and builds the store
// skeleton — options, routing metadata, and a shard slice the caller
// fills by opening each shard's image.
func storeFromRouterManifest(m routerManifest) (*Store, error) {
	if m.Version != 1 {
		return nil, fmt.Errorf("shard: unsupported router version %d", m.Version)
	}
	if m.Shards < 1 {
		return nil, fmt.Errorf("shard: router manifest with %d shards", m.Shards)
	}
	s := &Store{
		opts: Options{
			Shards:            m.Shards,
			Kind:              m.Kind,
			Domain:            m.Domain,
			StaticRangeBounds: m.StaticRangeBounds,
		},
		shards: make([]*crackdb.Store, m.Shards),
		tables: make(map[string]*tableMeta, len(m.Tables)),
	}
	for _, te := range m.Tables {
		part, err := partFromSpec(te.Part)
		if err != nil {
			return nil, fmt.Errorf("shard: table %q: %w", te.Name, err)
		}
		if te.Part.Shards != m.Shards {
			return nil, fmt.Errorf("shard: table %q partitioned over %d shards, router has %d",
				te.Name, te.Part.Shards, m.Shards)
		}
		if te.KeyIdx < 0 || te.KeyIdx >= len(te.Cols) || te.Cols[te.KeyIdx] != te.Key {
			return nil, fmt.Errorf("shard: table %q key %q does not match column %d",
				te.Name, te.Key, te.KeyIdx)
		}
		s.tables[te.Name] = &tableMeta{
			cols:   te.Cols,
			key:    te.Key,
			keyIdx: te.KeyIdx,
			part:   part,
			seeded: te.Seeded,
		}
	}
	return s, nil
}

// BootInfo describes what OpenDurable recovered.
type BootInfo struct {
	Recovered   bool   // a chain was found and loaded
	AppliedSeq  uint64 // WAL seq the chain tip covered
	Replayed    int    // WAL records replayed on top of it
	ChainDeltas int    // differential elements applied over element 0
}

// OpenDurable boots a sharded store from a data directory:
//
//	dir/store/        chain element 0 (the newest full checkpoint), if any
//	dir/delta-NNNNNN/ differential elements on top of it (delta mode)
//	dir/wal.log       the mutation log
//
// The chain is resolved and verified and every element applied in
// order, the WAL's uncovered suffix is replayed, and the log is attached
// so every further mutation is WAL-first. A directory with no chain is
// a cold boot: a fresh store under opts with an empty log. Either way
// the returned store is ready to serve and Checkpoint-able. A chain that
// fails verification (broken link, corrupt manifest, a shard list that
// disagrees with the element directory) refuses the boot rather than
// serving a partial image.
func OpenDurable(dir string, opts Options) (*Store, BootInfo, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, BootInfo{}, err
	}
	elems, err := resolveChain(dir)
	if err != nil {
		return nil, BootInfo{}, err
	}
	var s *Store
	var info BootInfo
	if len(elems) == 0 {
		s = New(opts)
	} else if s, info.AppliedSeq, err = openChain(dir, elems); err != nil {
		return nil, BootInfo{}, err
	}
	info.Recovered, info.ChainDeltas = len(elems) > 0, max(len(elems)-1, 0)
	wal, err := durable.Open(filepath.Join(dir, dataWALName), info.AppliedSeq,
		func(seq uint64, rec durable.Record) error {
			if seq < info.AppliedSeq {
				return nil // already inside the chain
			}
			info.Replayed++
			return s.Apply(rec)
		})
	if err != nil {
		return nil, BootInfo{}, err
	}
	s.walMu.Lock()
	s.wal = wal
	s.dataDir = dir
	s.boots = bumpBoots(filepath.Join(dir, dataBootsName))
	s.chain = elems
	s.walMu.Unlock()
	return s, info, nil
}

// bumpBoots increments the data directory's boot counter and returns
// the new value (1 on the first boot). The counter feeds the obs
// layer's restarts_total, marking the discontinuity after which every
// in-memory work counter restarted at zero. Best-effort: an unreadable
// or unwritable counter degrades to reporting this as the first boot,
// never to a failed open.
func bumpBoots(path string) int64 {
	var n int64
	if data, err := os.ReadFile(path); err == nil {
		fmt.Sscanf(string(data), "%d", &n)
	}
	n++
	os.WriteFile(path, []byte(fmt.Sprintf("%d\n", n)), 0o644)
	return n
}

// Apply replays one WAL record against the router — the inverse of the
// logging in the mutating methods. It routes through the public
// mutators, so its logging behaviour follows the WAL attachment: during
// boot replay the WAL is not yet attached and nothing is re-logged,
// while on a follower (WAL attached) every applied record re-logs
// exactly one local record — the follower's log mirrors the primary's
// seq for seq, which is what makes the local log frontier the replayed
// position after a crash.
func (s *Store) Apply(rec durable.Record) error {
	switch rec.Kind {
	case durable.KindCreate:
		if rec.Part == "" {
			return s.CreateTable(rec.Table, rec.Cols...)
		}
		kind, err := ParseKind(rec.Part)
		if err != nil {
			return err
		}
		return s.CreateTableKeyed(rec.Table, rec.Key, kind, rec.Cols...)
	case durable.KindInsert:
		return s.InsertRows(rec.Table, rec.Rows)
	case durable.KindDrop:
		return s.DropTable(rec.Table)
	case durable.KindTapestry:
		return s.LoadTapestry(rec.Table, rec.N, rec.Alpha, rec.Seed)
	case durable.KindStrategy:
		if rec.Shard < 0 {
			return s.SetCrackStrategy(rec.Name, rec.Seed)
		}
		return s.SetShardCrackStrategy(rec.Shard, rec.Name, rec.Seed)
	case durable.KindDelete:
		conds := make([]crackdb.Cond, len(rec.Conds))
		for i, c := range rec.Conds {
			conds[i] = crackdb.Cond{Col: c.Col, Op: c.Op, Val: c.Val}
		}
		_, err := s.Delete(rec.Table, conds...)
		return err
	default:
		return fmt.Errorf("shard: cannot apply WAL record kind %v", rec.Kind)
	}
}

// Durable reports whether the store was booted with OpenDurable (and so
// supports Checkpoint and WALStatus).
func (s *Store) Durable() bool {
	s.walMu.RLock()
	defer s.walMu.RUnlock()
	return s.wal != nil && s.dataDir != ""
}

// Checkpoint writes a chain element into the data directory and
// rotates the WAL, under full mutation exclusion: no insert can slip
// between the image and the log cut, so nothing acked is ever lost and
// nothing is replayed twice. Queries keep running throughout — they
// reorganize crack state, which the element captures per column
// atomically and which is re-derivable anyway. In the store's default
// mode (SetCheckpointDelta) this is a new element 0, a full image; delta
// mode appends a differential element instead — see CheckpointMode.
func (s *Store) Checkpoint() error {
	_, err := s.CheckpointMode("")
	return err
}

// SetWALCoalesceWindow widens group commit on the attached log: the
// fsync flusher waits up to d after noticing a pending batch so more
// concurrent inserts share one fsync (see durable.WAL.SetCoalesceWindow;
// the cracksrv -walwindow flag). No-op on a volatile store.
func (s *Store) SetWALCoalesceWindow(d time.Duration) {
	s.walMu.RLock()
	defer s.walMu.RUnlock()
	if s.wal != nil {
		s.wal.SetCoalesceWindow(d)
	}
}

// WALStatus reports the attached log's shape (the /wal meta).
func (s *Store) WALStatus() (durable.Status, bool) {
	s.walMu.RLock()
	defer s.walMu.RUnlock()
	if s.wal == nil {
		return durable.Status{}, false
	}
	return s.wal.Status(), true
}

// CloseWAL drains and closes the attached log (clean shutdown).
func (s *Store) CloseWAL() error {
	s.walMu.Lock()
	defer s.walMu.Unlock()
	if s.wal == nil {
		return nil
	}
	err := s.wal.Close()
	s.wal = nil
	return err
}
