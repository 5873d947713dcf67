package crackdb

import (
	"fmt"
	"path/filepath"
	"sort"
	"strings"

	"crackdb/internal/bat"
	"crackdb/internal/core"
	"crackdb/internal/durable"
	"crackdb/internal/relation"
	"crackdb/internal/strategy"
	"crackdb/internal/tuner"
)

// Chain elements at the store level. writeElementLocked builds every
// image: element 0 (no predecessor — every table rewritten, every
// cracked column carried) for Save and SaveWarm, and a differential
// element for SaveDelta — rewritten BAT images for tables whose base
// data moved, complete crack state for columns whose fingerprint moved,
// sideways maps for touched tables — chained to the previous image by
// its checksum trailer. applyDelta folds an element into a live store;
// openChain (persist.go) applies a whole chain to an empty one.
//
// Change detection is a saveMark: a per-table shape-and-generation
// record plus a per-column state fingerprint
// (core.Column.StateFingerprint), recorded after every successful save
// and after every warm open. A table or column with no mark entry is
// dirty by definition — element 0 is written against an empty mark —
// and every table-creation path bumps the table's generation
// (bumpTableGenLocked), so create, drop+recreate (even into an
// identical shape and row count), and Materialize (which bypasses the
// WAL) all land in the next delta.

// saveMark captures what the last saved image contained, in just enough
// detail to decide per column whether the live state still matches it.
type saveMark struct {
	sum    uint32 // CRC-32 trailer of the saved element (chain identity)
	config durable.StoreConfig
	tables map[string]tableMark
	cols   map[colKey]uint64 // crack-state fingerprints at save time
}

type tableMark struct {
	gen   uint64 // creation generation (bumpTableGenLocked) — object identity
	rows  int    // physical rows, tombstoned included
	tombs int    // tombstone count (monotone: equal count == equal set)
	cols  string // column names, joined — schema identity
}

type colKey struct{ table, attr string }

func joinCols(cols []string) string { return strings.Join(cols, "\x00") }

// bumpTableGenLocked stamps name with a fresh generation. Every path
// that installs a table object into s.tables must call it — create,
// tapestry load, Materialize, vertical partition/reunite, warm open,
// delta apply — so shape-based dirtiness never mistakes a recreated
// table for the one the last save captured. The caller holds s.mu.
func (s *Store) bumpTableGenLocked(name string) {
	s.genSeq++
	s.tableGen[name] = s.genSeq
}

// configLocked materializes the store-wide crack configuration a
// chain element carries. The caller holds s.mu (read or write).
func (s *Store) configLocked() durable.StoreConfig {
	return durable.StoreConfig{
		StrategyName:   s.strategyName,
		StrategySeed:   s.strategySeed,
		MaxPieces:      s.maxPieces,
		Ripple:         s.ripple,
		SidewaysBudget: s.sideways.Budget(),
	}
}

// markLocked records the just-saved (or just-restored) image identified
// by sum as the new delta base. The caller holds s.mu.
func (s *Store) markLocked(sum uint32) {
	m := &saveMark{
		sum:    sum,
		config: s.configLocked(),
		tables: make(map[string]tableMark, len(s.tables)),
		cols:   make(map[colKey]uint64),
	}
	for name, t := range s.tables {
		tm := tableMark{gen: s.tableGen[name], rows: t.Len(), cols: joinCols(t.ColumnNames())}
		if ct, ok := s.cracked[name]; ok {
			tm.tombs = len(ct.Tombstones())
			for _, attr := range ct.CrackedColumns() {
				if c, ok := ct.Column(attr); ok {
					m.cols[colKey{name, attr}] = c.StateFingerprint()
				}
			}
		}
		m.tables[name] = tm
	}
	s.mark = m
}

// InvalidateSaveMark forgets the delta base: the next SaveDelta refuses
// until a full warm save completes. Callers use it when a multi-store
// save partially failed — the per-store images may have been written
// (marking each store) without the enclosing image ever landing.
func (s *Store) InvalidateSaveMark() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.mark = nil
}

// DirtySinceSave reports whether any persisted state changed since the
// last save: configuration, table set or shape, tombstones, or any
// column's crack state (cut set, pending queue, strategy RNG position).
// A store that has never saved — or whose last save failed — is dirty.
// Tuner posture is deliberately excluded: it is advisory warmth, and
// counting it would make every observed store permanently dirty.
func (s *Store) DirtySinceSave() bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.dirtySinceSaveLocked()
}

func (s *Store) dirtySinceSaveLocked() bool {
	m := s.mark
	if m == nil {
		return true
	}
	if s.configLocked() != m.config {
		return true
	}
	if len(s.tables) != len(m.tables) {
		return true
	}
	liveCols := 0
	for name, t := range s.tables {
		tm, ok := m.tables[name]
		if !ok || tm.gen != s.tableGen[name] || tm.rows != t.Len() || tm.cols != joinCols(t.ColumnNames()) {
			return true
		}
		tombs := 0
		if ct, ok := s.cracked[name]; ok {
			tombs = len(ct.Tombstones())
			for _, attr := range ct.CrackedColumns() {
				c, ok := ct.Column(attr)
				if !ok {
					continue
				}
				liveCols++
				if prev, ok := m.cols[colKey{name, attr}]; !ok || prev != c.StateFingerprint() {
					return true
				}
			}
		}
		if tm.tombs != tombs {
			return true
		}
	}
	// A marked column with no live counterpart means a table was dropped
	// and recreated in an identical shape — dirty.
	return liveCols != len(m.cols)
}

// writeElementLocked writes one chain element into dir (which exists
// and is empty), chained to base — an empty mark for element 0 — and
// returns the element's checksum. Cold (warm false) leaves out every
// column, sideways and tuner record. The caller holds s.mu.
func (s *Store) writeElementLocked(dir string, base *saveMark, warm bool) (uint32, error) {
	d := &durable.DeltaSnapshot{PrevSum: base.sum, Config: s.configLocked()}
	if s.wal != nil {
		d.AppliedSeq = s.wal.Seq()
	}
	if warm {
		for _, t := range s.exportTunerStates() {
			d.Tuner = append(d.Tuner, durable.TunerState{
				Table: t.Table, Column: t.Column,
				Strategy: t.Strategy, Class: t.Class,
				Flips: t.Flips, Forced: t.Forced,
			})
		}
	}
	names := make([]string, 0, len(s.tables))
	for name := range s.tables {
		names = append(names, name)
	}
	sort.Strings(names)
	touched := make(map[string]bool)
	for _, name := range names {
		t := s.tables[name]
		dt := durable.DeltaTable{Name: name, Cols: t.ColumnNames(), Rows: t.Len()}
		ct := s.cracked[name]
		var attrs []string
		if ct != nil {
			dt.Deleted = ct.Tombstones()
			if warm {
				attrs = ct.CrackedColumns()
				sort.Strings(attrs)
			}
		}
		tm, had := base.tables[name]
		markCols := 0
		for k := range base.cols {
			if k.table == name {
				markCols++
			}
		}
		dt.DataDirty = !had || tm.gen != s.tableGen[name] ||
			tm.rows != dt.Rows || tm.cols != joinCols(dt.Cols) ||
			markCols > len(attrs) // a cracked column vanished: drop+recreate
		tombChanged := !had || tm.tombs != len(dt.Deleted)
		if dt.DataDirty {
			for _, col := range dt.Cols {
				b, err := t.Column(col)
				if err != nil {
					return 0, err
				}
				if err := b.Save(columnPath(dir, name, col)); err != nil {
					return 0, fmt.Errorf("crackdb: save %s.%s: %w", name, col, err)
				}
			}
		}
		tableTouched := dt.DataDirty || tombChanged
		for _, attr := range attrs {
			c, ok := ct.Column(attr)
			if !ok {
				continue
			}
			prev, known := base.cols[colKey{name, attr}]
			if dt.DataDirty || tombChanged || !known || prev != c.StateFingerprint() {
				d.Columns = append(d.Columns, durable.ColumnSnapshot{
					Table: name, Attr: attr, State: c.ExportState(),
				})
				tableTouched = true
			}
		}
		if tableTouched {
			touched[name] = true
			d.Touched = append(d.Touched, name)
		}
		d.Tables = append(d.Tables, dt)
	}
	if warm {
		for _, ms := range s.sideways.Export() {
			if touched[ms.Table] {
				d.Sideways = append(d.Sideways, ms)
			}
		}
	}
	return durable.WriteDelta(filepath.Join(dir, elementName), d)
}

// applyDelta folds one verified chain element into the store: drops
// tables absent from the element's manifest, swaps in rewritten base
// data, reconciles tombstones, replaces the crack state of every column
// the element carries, and refreshes sideways maps for touched tables.
// Cold (warm false) stops after the table manifest.
func (s *Store) applyDelta(dir string, d *durable.DeltaSnapshot, warm bool) error {
	// Strategy config first: SetCrackStrategy takes s.mu itself. No WAL
	// is attached at chain-apply time, so nothing is re-logged.
	if name := d.Config.StrategyName; warm && name != "" {
		if err := s.SetCrackStrategy(name, d.Config.StrategySeed); err != nil {
			return err
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if warm {
		s.maxPieces = d.Config.MaxPieces
		s.ripple = d.Config.Ripple
		s.sideways.SetBudget(d.Config.SidewaysBudget)
	}

	inDelta := make(map[string]bool, len(d.Tables))
	for _, dt := range d.Tables {
		inDelta[dt.Name] = true
	}
	for name := range s.tables {
		if inDelta[name] {
			continue
		}
		if err := s.cat.DropTable(name); err != nil {
			return err
		}
		delete(s.tables, name)
		delete(s.tableGen, name)
		delete(s.cracked, name)
		s.sideways.DropTable(name)
	}
	touched := make(map[string]bool, len(d.Touched))
	for _, name := range d.Touched {
		touched[name] = true
	}
	for _, dt := range d.Tables {
		live, exists := s.tables[dt.Name]
		if dt.DataDirty {
			cols := make([]relation.Column, len(dt.Cols))
			for i, col := range dt.Cols {
				b, err := bat.Load(dt.Name+"_"+col, columnPath(dir, dt.Name, col))
				if err != nil {
					return fmt.Errorf("crackdb: load %s.%s: %w", dt.Name, col, err)
				}
				if b.Len() != dt.Rows {
					return fmt.Errorf("crackdb: element %s: %s.%s has %d rows, manifest says %d", dir,
						dt.Name, col, b.Len(), dt.Rows)
				}
				cols[i] = relation.Column{Name: col, Data: b}
			}
			t, err := relation.FromColumns(dt.Name, cols...)
			if err != nil {
				return err
			}
			if exists {
				if err := s.cat.DropTable(dt.Name); err != nil {
					return err
				}
			}
			delete(s.cracked, dt.Name)
			s.sideways.DropTable(dt.Name)
			s.tables[dt.Name] = t
			s.bumpTableGenLocked(dt.Name)
			if err := s.registerTableLocked(dt.Name, dt.Cols, dt.Rows-len(dt.Deleted)); err != nil {
				return err
			}
			if len(dt.Deleted) > 0 {
				ct := s.newCrackedTableLocked(dt.Name, t)
				if err := ct.RestoreTombstones(dt.Deleted); err != nil {
					return fmt.Errorf("crackdb: restore %s: %w", dt.Name, err)
				}
				s.cracked[dt.Name] = ct
			}
			continue
		}
		if !exists {
			return fmt.Errorf("crackdb: delta %s references table %q missing from the chain so far", dir, dt.Name)
		}
		if live.Len() != dt.Rows || joinCols(live.ColumnNames()) != joinCols(dt.Cols) {
			return fmt.Errorf("crackdb: delta %s disagrees with table %q shape — chain corrupt", dir, dt.Name)
		}
		var cur []bat.OID
		if ct, ok := s.cracked[dt.Name]; ok {
			cur = ct.Tombstones()
		}
		if !equalOIDs(cur, dt.Deleted) {
			// Every cracked column of the table rides in d.Columns (a
			// delete forwards to all of them, so their fingerprints all
			// moved): rebuild the wrapper around the new tombstone set and
			// let the column loop below repopulate it.
			s.sideways.DropTable(dt.Name)
			ct := s.newCrackedTableLocked(dt.Name, live)
			if len(dt.Deleted) > 0 {
				if err := ct.RestoreTombstones(dt.Deleted); err != nil {
					return fmt.Errorf("crackdb: restore %s: %w", dt.Name, err)
				}
			}
			s.cracked[dt.Name] = ct
			if err := s.cat.SetRows(dt.Name, dt.Rows-len(dt.Deleted)); err != nil {
				return err
			}
		} else if touched[dt.Name] {
			// Crack state moved without a data or tombstone change: the
			// element carries the table's complete current map set, so the
			// chain-older maps go first.
			s.sideways.DropTable(dt.Name)
		}
	}
	if !warm {
		return nil
	}
	seen := make(map[colKey]bool, len(d.Columns))
	for _, cs := range d.Columns {
		k := colKey{cs.Table, cs.Attr}
		if seen[k] {
			return fmt.Errorf("crackdb: element %s carries two records for %s.%s", dir, cs.Table, cs.Attr)
		}
		seen[k] = true
		t, ok := s.tables[cs.Table]
		if !ok {
			return fmt.Errorf("crackdb: delta crack state for unknown table %q", cs.Table)
		}
		ct, ok := s.cracked[cs.Table]
		if !ok {
			ct = s.newCrackedTableLocked(cs.Table, t)
			s.cracked[cs.Table] = ct
		}
		opts := s.baseColumnOptions()
		if cs.State.Strategy != nil {
			st, err := strategy.Restore(*cs.State.Strategy)
			if err != nil {
				return fmt.Errorf("crackdb: restore %s.%s: %w", cs.Table, cs.Attr, err)
			}
			opts = append(opts, core.WithStrategy(st))
		}
		col, err := core.ColumnFromState(cs.State, opts...)
		if err != nil {
			return fmt.Errorf("crackdb: restore %s.%s: %w", cs.Table, cs.Attr, err)
		}
		if err := ct.ReplaceColumn(cs.Attr, col); err != nil {
			return fmt.Errorf("crackdb: restore %s.%s: %w", cs.Table, cs.Attr, err)
		}
	}
	if len(d.Sideways) > 0 {
		lookup := func(table string) (*core.CrackedTable, bool) {
			t, ok := s.tables[table]
			if !ok {
				return nil, false
			}
			ct, ok := s.cracked[table]
			if !ok {
				ct = s.newCrackedTableLocked(table, t)
				s.cracked[table] = ct
			}
			return ct, true
		}
		if err := s.sideways.Restore(d.Sideways, lookup, strategy.Restore); err != nil {
			return fmt.Errorf("crackdb: %w", err)
		}
	}
	// Tuner posture: full copy per element, latest element wins.
	s.pendingTuner = nil
	for _, t := range d.Tuner {
		s.pendingTuner = append(s.pendingTuner, tuner.ColumnState{
			Table: t.Table, Column: t.Column,
			Strategy: t.Strategy, Class: t.Class,
			Flips: t.Flips, Forced: t.Forced,
		})
	}
	return nil
}

// equalOIDs compares two ascending OID slices.
func equalOIDs(a, b []bat.OID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
