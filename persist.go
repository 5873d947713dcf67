package crackdb

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"crackdb/internal/bat"
	"crackdb/internal/durable"
	"crackdb/internal/sideways"
)

// Store persistence. Every image is a chain of elements (internal/durable
// CRKD files, each beside the BAT images of the tables it rewrote),
// applied in order to an empty store. Element 0 has no predecessor and
// carries every table; SaveDelta appends elements carrying only what
// changed (persist_delta.go). Save writes element 0 without crack state,
// matching the paper's prototype ("each table comes with its own cracker
// index and they are not saved between sessions", §5.2); SaveWarm adds
// every column's cut set, cracked vectors, pending updates and strategy
// RNG position, sideways maps and tuner posture, so a reopened store
// resumes at converged per-query latency. Images written before the
// element format (crackdb.json + BATs, optionally a CRKS
// crackstate.crk) still open: readElement adapts one into element 0.
//
// Every save is atomic: the image is written into a fresh temp directory
// next to the target and swapped in with renames, so a crash mid-save
// leaves the previous image intact. AttachWAL adds the last durability
// layer: mutations are logged (and fsynced, group-committed) before they
// are applied, and Apply replays a log against a reopened store.

// elementName is the chain element file inside an image directory.
const elementName = "crackdelta.crk"

// The pre-element image: a JSON table manifest plus, for warm saves, a
// CRKS crack-state snapshot. Read only, by readElement.
const (
	legacyManifestName   = "crackdb.json"
	legacyCrackStateName = "crackstate.crk"
)

type legacyManifest struct {
	Version int `json:"version"`
	Tables  []struct {
		Name    string   `json:"name"`
		Columns []string `json:"columns"`
		Rows    int      `json:"rows"`
		Deleted []uint32 `json:"deleted"`
	} `json:"tables"`
}

// Save writes the store's cold image — element 0 with tables and
// tombstones only, no crack state — atomically replacing any previous
// image in dir. A cold image anchors no delta chain.
func (s *Store) Save(dir string) error { return s.save(dir, false, false) }

// SaveWarm writes the store's warm image: element 0 with every table,
// cracked column, sideways map and tuner record, so OpenWarm resumes
// with the indexes the queries have paid for. When a WAL is attached
// the element is stamped with the current WAL sequence, making it a
// checkpoint: replay skips the records the image already covers.
func (s *Store) SaveWarm(dir string) error { return s.save(dir, true, false) }

// SaveDelta writes a differential element into dir: rewritten BAT
// images for data-dirty tables only, plus the crack state that moved
// since the last save, atomically replacing any previous content of
// dir. It requires a base: the store must have completed a warm save
// (or warm open) whose mark anchors the chain.
func (s *Store) SaveDelta(dir string) error { return s.save(dir, true, true) }

// save writes one chain element into dir: chained to the mark of the
// last save when delta is set, element 0 otherwise. The caller's lock
// on s.mu covers the whole element, so no insert can slip between the
// BAT images, the crack state, and the WAL stamp.
func (s *Store) save(dir string, warm, delta bool) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	base := &saveMark{}
	if delta {
		if base = s.mark; base == nil {
			return fmt.Errorf("crackdb: no base image to delta against (complete a full warm save first)")
		}
	}
	var sum uint32
	err := durable.AtomicReplaceDir(dir, func(tmp string) error {
		var werr error
		sum, werr = s.writeElementLocked(tmp, base, warm)
		return werr
	})
	// The mark anchors differential checkpoints to the image on disk: a
	// successful warm save becomes the next delta's predecessor, and any
	// failure — including the final directory swap, after the element
	// itself was written — clears it, so the next SaveDelta refuses
	// rather than chaining to an image that never landed.
	if err != nil || !warm {
		s.mark = nil
		return err
	}
	s.markLocked(sum)
	return nil
}

// Open loads an image's tables and tombstones, ignoring any crack state
// it carries: the cold reopen. dir must hold element 0 (Save, SaveWarm,
// or a pre-element image).
func Open(dir string) (*Store, error) {
	s, _, err := openChain([]string{dir}, false)
	return s, err
}

// OpenWarm loads a warm image, reattaching every column's cut set,
// cracked vectors, pending updates and strategy (with its RNG
// position). It returns the WAL sequence the image covers, so the
// caller can replay only the log suffix. A cold image opens with no
// warmth to restore.
func OpenWarm(dir string) (*Store, uint64, error) { return OpenWarmChain(dir, nil) }

// OpenWarmChain loads a chain: element 0 in baseDir plus the ordered
// delta directories SaveDelta wrote on top of it. Each element must
// name its predecessor's checksum (element 0 names none); a broken or
// missing link refuses the whole open rather than silently serving a
// cold or half-applied store. Returns the WAL sequence the chain covers
// through its final element.
func OpenWarmChain(baseDir string, deltaDirs []string) (*Store, uint64, error) {
	return openChain(append([]string{baseDir}, deltaDirs...), true)
}

// openChain applies the elements in dirs, in order, to an empty store.
// Cold (warm false) applies table manifests only.
func openChain(dirs []string, warm bool) (*Store, uint64, error) {
	s := New()
	var applied uint64
	var prevSum uint32
	for i, dir := range dirs {
		d, sum, err := readElement(dir)
		if err != nil {
			return nil, 0, err
		}
		if d.PrevSum != prevSum {
			if i == 0 {
				return nil, 0, fmt.Errorf("crackdb: %s is a delta element, not a base image", dir)
			}
			return nil, 0, fmt.Errorf("crackdb: delta chain broken at %s: element links %08x, but its predecessor %s is %08x — a delta opens only over the warm base and elements it was saved after",
				dir, d.PrevSum, dirs[i-1], prevSum)
		}
		if err := s.applyDelta(dir, d, warm); err != nil {
			return nil, 0, err
		}
		applied, prevSum = d.AppliedSeq, sum
	}
	if warm {
		// The reopened state matches the chain on disk exactly, so its
		// tip can anchor the next delta without another full save.
		s.mu.Lock()
		s.markLocked(prevSum)
		s.mu.Unlock()
	}
	return s, applied, nil
}

// readElement reads and verifies the chain element in dir, returning it
// with its chain sum. An image written before the element format is
// adapted into element 0 whose sum is its CRKS trailer (0 for a cold
// one), so delta chains written against it still link.
func readElement(dir string) (*durable.DeltaSnapshot, uint32, error) {
	durable.RecoverDirSwap(dir, elementName, legacyManifestName)
	d, sum, err := durable.ReadDelta(filepath.Join(dir, elementName))
	if err == nil {
		return d, sum, nil
	}
	if !os.IsNotExist(err) {
		return nil, 0, fmt.Errorf("crackdb: open %s: %w", dir, err)
	}
	data, err := os.ReadFile(filepath.Join(dir, legacyManifestName))
	if err != nil {
		return nil, 0, fmt.Errorf("crackdb: open store: %w", err)
	}
	var m legacyManifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, 0, fmt.Errorf("crackdb: corrupt manifest: %w", err)
	}
	if m.Version != 1 {
		return nil, 0, fmt.Errorf("crackdb: unsupported store version %d", m.Version)
	}
	tables := make([]durable.DeltaTable, len(m.Tables))
	for i, mt := range m.Tables {
		tables[i] = durable.DeltaTable{Name: mt.Name, Cols: mt.Columns, Rows: mt.Rows, DataDirty: true}
		for _, o := range mt.Deleted {
			tables[i].Deleted = append(tables[i].Deleted, bat.OID(o))
		}
	}
	snap, sum, err := durable.ReadSnapshotSum(filepath.Join(dir, legacyCrackStateName))
	if os.IsNotExist(err) {
		snap = &durable.StoreSnapshot{Config: durable.StoreConfig{SidewaysBudget: sideways.DefaultBudget}}
	} else if err != nil {
		return nil, 0, err
	}
	return snap.Element(tables), sum, nil
}

// AttachWAL arms write-ahead logging: every subsequent CreateTable,
// DropTable, InsertRows, LoadTapestry and SetCrackStrategy is appended
// to the log — and fsynced, group-committed — before it is applied, so
// an acked mutation survives a crash. Attach after Apply-driven replay,
// never before (replay must not re-log itself).
func (s *Store) AttachWAL(w *durable.WAL) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.wal = w
}

// WAL returns the attached log, if any.
func (s *Store) WAL() *durable.WAL {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.wal
}

// logRecord appends a mutation to the attached WAL, if any. Callers hold
// s.mu (so snapshotting, which also holds s.mu, can never interleave
// between a record being logged and applied) and must call it before
// mutating anything.
func (s *Store) logRecord(rec durable.Record) error {
	if s.wal == nil {
		return nil
	}
	if _, err := s.wal.Append(rec); err != nil {
		return fmt.Errorf("crackdb: wal append: %w", err)
	}
	return nil
}

// Apply replays one WAL record against the store — the boot-time inverse
// of the logging in the mutating methods. Replay a log with
// durable.Open's apply callback before calling AttachWAL.
func (s *Store) Apply(rec durable.Record) error {
	switch rec.Kind {
	case durable.KindCreate:
		return s.CreateTable(rec.Table, rec.Cols...)
	case durable.KindInsert:
		return s.InsertRows(rec.Table, rec.Rows)
	case durable.KindDrop:
		return s.DropTable(rec.Table)
	case durable.KindTapestry:
		return s.LoadTapestry(rec.Table, rec.N, rec.Alpha, rec.Seed)
	case durable.KindStrategy:
		return s.SetCrackStrategy(rec.Name, rec.Seed)
	case durable.KindDelete:
		conds := make([]Cond, len(rec.Conds))
		for i, c := range rec.Conds {
			conds[i] = Cond{Col: c.Col, Op: c.Op, Val: c.Val}
		}
		_, err := s.Delete(rec.Table, conds...)
		return err
	default:
		return fmt.Errorf("crackdb: cannot apply WAL record kind %v", rec.Kind)
	}
}

func columnPath(dir, table, col string) string {
	return filepath.Join(dir, table+"."+col+".bat")
}
