package durable

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"crackdb/internal/bat"
	"crackdb/internal/core"
	"crackdb/internal/sideways"
)

// Legacy crack-state snapshots (CRKS). Full images were once a BAT
// manifest plus this file; every image is now a chain element (CRKD,
// delta.go) and nothing writes CRKS any more. ReadSnapshotSum still
// decodes versions 1–3 so stores saved by older releases open, and
// Element adapts a decoded image into chain element 0. The column and
// sideways record codecs below are shared with the element format. The
// file layout is:
//
//	magic      [4]byte  "CRKS"
//	version    uint8    3
//	appliedSeq uint64   WAL seq the image covers (replay skips below it)
//	config     store-wide crack configuration (strategy, pieces, ripple,
//	           and — version 2 — the sideways map budget)
//	ncols      uint32
//	columns    ncols × column records (table, attr, ColumnState)
//	nsets      uint32   (version 2) sideways map spines
//	sideways   nsets × map records (table, key, vectors, cuts, payloads)
//	ntune      uint32   (version 3) tuner posture records
//	tuner      ntune × records (table, column, strategy, class, flips,
//	           forced) — the auto-tuner's learned per-column posture
//	crc        uint32   CRC-32 (IEEE) of everything above
//
// Version 1 (no sideways section, no budget field) starts the maps cold
// with the default budget, and version 2 (no tuner section) reopens
// with no learned posture — the tuner re-learns from live traffic
// within one window.

var snapMagic = [4]byte{'C', 'R', 'K', 'S'}

const snapVersion = 3

// StoreConfig is the store-wide crack configuration an image carries,
// so columns created after a warm reopen behave like columns created
// before the shutdown.
type StoreConfig struct {
	StrategyName   string
	StrategySeed   int64
	MaxPieces      int
	Ripple         bool
	SidewaysBudget int
}

// ColumnSnapshot binds one column's exported state to its table and
// attribute.
type ColumnSnapshot struct {
	Table string
	Attr  string
	State core.ColumnState
}

// TunerState is one column's persisted auto-tuner posture (the durable
// mirror of internal/tuner's ColumnState — durable stays decoupled from
// the tuner package the same way it references strategies only through
// core.StrategyState).
type TunerState struct {
	Table, Column string
	Strategy      string // strategy the tuner last decided on
	Class         string // workload class of the last completed window
	Flips         uint64
	Forced        bool
}

// StoreSnapshot is a decoded legacy CRKS image: the full crack state of
// one store.
type StoreSnapshot struct {
	AppliedSeq uint64
	Config     StoreConfig
	Columns    []ColumnSnapshot

	// Sideways carries the partial sideways-cracking maps (aligned
	// key/oid/payload vectors plus cut sets), so a warm reopen resumes
	// multi-attribute projections without re-materializing or re-cracking
	// a single map.
	Sideways []sideways.MapState

	// Tuner carries the auto-tuner's learned per-column posture, so a
	// warm reopen resumes the decided strategies and flip counters
	// instead of re-learning from scratch.
	Tuner []TunerState
}

// Element adapts a legacy image into chain element 0: tables is the
// table manifest that accompanied it (every entry DataDirty, its BAT
// images beside the snapshot), and every table is touched, so the
// element carries the table's complete sideways map set. PrevSum is 0 —
// element 0 has no predecessor.
func (s *StoreSnapshot) Element(tables []DeltaTable) *DeltaSnapshot {
	d := &DeltaSnapshot{
		AppliedSeq: s.AppliedSeq,
		Config:     s.Config,
		Tables:     tables,
		Columns:    s.Columns,
		Sideways:   s.Sideways,
		Tuner:      s.Tuner,
	}
	for _, t := range tables {
		d.Touched = append(d.Touched, t.Name)
	}
	return d
}

func encodeSidewaysSet(w io.Writer, ms *sideways.MapState) error {
	buf := make([]byte, 0, 1<<12)
	buf = appendString(buf, ms.Table)
	buf = appendString(buf, ms.Key)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(ms.Keys)))
	if _, err := w.Write(buf); err != nil {
		return err
	}
	if err := writeInt64s(w, ms.Keys); err != nil {
		return err
	}
	chunk := make([]byte, 0, 1<<16)
	for _, o := range ms.OIDs {
		chunk = binary.LittleEndian.AppendUint32(chunk, uint32(o))
		if len(chunk) >= 1<<16-8 {
			if _, err := w.Write(chunk); err != nil {
				return err
			}
			chunk = chunk[:0]
		}
	}
	chunk = binary.LittleEndian.AppendUint64(chunk, uint64(len(ms.Cuts)))
	for _, c := range ms.Cuts {
		chunk = binary.LittleEndian.AppendUint64(chunk, uint64(c.Val))
		chunk = appendBool(chunk, c.Incl)
		chunk = binary.LittleEndian.AppendUint64(chunk, uint64(c.Pos))
	}
	if ms.Strategy != nil {
		chunk = appendBool(chunk, true)
		chunk = appendString(chunk, ms.Strategy.Name)
		chunk = binary.LittleEndian.AppendUint64(chunk, uint64(ms.Strategy.MinPiece))
		chunk = binary.LittleEndian.AppendUint64(chunk, ms.Strategy.RNG)
	} else {
		chunk = appendBool(chunk, false)
	}
	chunk = binary.LittleEndian.AppendUint32(chunk, uint32(len(ms.Pays)))
	if _, err := w.Write(chunk); err != nil {
		return err
	}
	for _, p := range ms.Pays {
		if _, err := w.Write(appendString(nil, p.Attr)); err != nil {
			return err
		}
		if err := writeInt64s(w, p.Vals); err != nil {
			return err
		}
	}
	return nil
}

// writeInt64s streams a vector in bounded chunks (the cracked vectors
// dominate the image; one giant buffer per column would double peak
// memory).
func writeInt64s(w io.Writer, vals []int64) error {
	chunk := make([]byte, 0, 1<<16)
	for _, v := range vals {
		chunk = binary.LittleEndian.AppendUint64(chunk, uint64(v))
		if len(chunk) >= 1<<16-8 {
			if _, err := w.Write(chunk); err != nil {
				return err
			}
			chunk = chunk[:0]
		}
	}
	_, err := w.Write(chunk)
	return err
}

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

func encodeColumn(w io.Writer, cs *ColumnSnapshot) error {
	st := &cs.State
	buf := make([]byte, 0, 1<<12)
	buf = appendString(buf, cs.Table)
	buf = appendString(buf, cs.Attr)
	buf = appendString(buf, st.Name)
	buf = appendBool(buf, st.Sorted)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(st.NextOID))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(st.Vals)))
	if _, err := w.Write(buf); err != nil {
		return err
	}
	// The cracked vectors dominate the image; stream them in chunks
	// instead of building one giant buffer.
	chunk := make([]byte, 0, 1<<16)
	for _, v := range st.Vals {
		chunk = binary.LittleEndian.AppendUint64(chunk, uint64(v))
		if len(chunk) >= 1<<16-8 {
			if _, err := w.Write(chunk); err != nil {
				return err
			}
			chunk = chunk[:0]
		}
	}
	for _, o := range st.OIDs {
		chunk = binary.LittleEndian.AppendUint32(chunk, uint32(o))
		if len(chunk) >= 1<<16-8 {
			if _, err := w.Write(chunk); err != nil {
				return err
			}
			chunk = chunk[:0]
		}
	}
	chunk = binary.LittleEndian.AppendUint64(chunk, uint64(len(st.Cuts)))
	for _, c := range st.Cuts {
		chunk = binary.LittleEndian.AppendUint64(chunk, uint64(c.Val))
		chunk = appendBool(chunk, c.Incl)
		chunk = binary.LittleEndian.AppendUint64(chunk, uint64(c.Pos))
	}
	chunk = binary.LittleEndian.AppendUint64(chunk, uint64(len(st.Pending)))
	for _, p := range st.Pending {
		chunk = binary.LittleEndian.AppendUint32(chunk, uint32(p.OID))
		chunk = binary.LittleEndian.AppendUint64(chunk, uint64(p.Val))
	}
	chunk = binary.LittleEndian.AppendUint64(chunk, uint64(len(st.Deleted)))
	for _, o := range st.Deleted {
		chunk = binary.LittleEndian.AppendUint32(chunk, uint32(o))
	}
	if st.Strategy != nil {
		chunk = appendBool(chunk, true)
		chunk = appendString(chunk, st.Strategy.Name)
		chunk = binary.LittleEndian.AppendUint64(chunk, uint64(st.Strategy.MinPiece))
		chunk = binary.LittleEndian.AppendUint64(chunk, st.Strategy.RNG)
	} else {
		chunk = appendBool(chunk, false)
	}
	_, err := w.Write(chunk)
	return err
}

// ReadSnapshotSum loads and validates a legacy CRKS image, returning it
// with its verified checksum (the CRC-32 trailer value) — the chain sum
// that deltas written against the image carry as their PrevSum.
func ReadSnapshotSum(path string) (*StoreSnapshot, uint32, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, 0, err
	}
	br := bufio.NewReaderSize(f, 1<<20)
	crc := crc32.NewIEEE()
	// limit caps every length-prefixed allocation by what the file could
	// possibly hold: a bit-flipped count field must fail cleanly as
	// corruption, not abort the process allocating petabytes before the
	// trailing checksum would have exposed it.
	r := &snapReader{r: io.TeeReader(br, crc), limit: fi.Size()}

	var magic [4]byte
	r.read(magic[:])
	if r.err != nil || magic != snapMagic {
		return nil, 0, fmt.Errorf("%w: bad snapshot magic", ErrCorrupt)
	}
	version := r.u8()
	if r.err == nil && (version < 1 || version > snapVersion) {
		return nil, 0, fmt.Errorf("durable: unsupported snapshot version %d", version)
	}
	s := &StoreSnapshot{}
	s.AppliedSeq = r.u64()
	s.Config.StrategyName = r.str()
	s.Config.StrategySeed = int64(r.u64())
	s.Config.MaxPieces = int(int64(r.u64()))
	s.Config.Ripple = r.bool()
	if version >= 2 {
		s.Config.SidewaysBudget = int(int64(r.u64()))
	} else {
		// Version 1 predates sideways cracking: the budget takes its
		// default, and there is no map section to read.
		s.Config.SidewaysBudget = sideways.DefaultBudget
	}
	ncols := r.u32()
	if !r.count(uint64(ncols), 16, "column") { // conservative minimum per column record
		return nil, 0, fmt.Errorf("%w: %v", ErrCorrupt, r.err)
	}
	for i := uint32(0); i < ncols && r.err == nil; i++ {
		s.Columns = append(s.Columns, r.column())
	}
	if version >= 2 && r.err == nil {
		nsets := r.u32()
		if !r.count(uint64(nsets), 21, "sideways map") { // minimum per map record
			return nil, 0, fmt.Errorf("%w: %v", ErrCorrupt, r.err)
		}
		for i := uint32(0); i < nsets && r.err == nil; i++ {
			s.Sideways = append(s.Sideways, r.sidewaysSet())
		}
	}
	if version >= 3 && r.err == nil {
		ntune := r.u32()
		if !r.count(uint64(ntune), 21, "tuner posture") { // 4 strings + u64 + bool minimum
			return nil, 0, fmt.Errorf("%w: %v", ErrCorrupt, r.err)
		}
		for i := uint32(0); i < ntune && r.err == nil; i++ {
			s.Tuner = append(s.Tuner, TunerState{
				Table:    r.str(),
				Column:   r.str(),
				Strategy: r.str(),
				Class:    r.str(),
				Flips:    r.u64(),
				Forced:   r.bool(),
			})
		}
	}
	if r.err != nil {
		return nil, 0, fmt.Errorf("%w: %v", ErrCorrupt, r.err)
	}
	// The checksum trails the teed content: read it from the underlying
	// reader so it does not feed back into the running CRC.
	want := crc.Sum32()
	var sum [4]byte
	if _, err := io.ReadFull(br, sum[:]); err != nil {
		return nil, 0, fmt.Errorf("%w: missing snapshot checksum: %v", ErrCorrupt, err)
	}
	if got := binary.LittleEndian.Uint32(sum[:]); got != want {
		return nil, 0, fmt.Errorf("%w: snapshot checksum mismatch (got %08x want %08x)", ErrCorrupt, got, want)
	}
	return s, want, nil
}

// snapReader is a little decoding cursor with sticky error handling.
type snapReader struct {
	r     io.Reader
	err   error
	limit int64 // file size: upper bound for any on-disk length field
	buf   [8]byte
}

// count validates a length field: n entries of at least entrySize bytes
// each must fit in the file, or the field is corrupt.
func (s *snapReader) count(n uint64, entrySize int64, what string) bool {
	if s.err != nil {
		return false
	}
	if n > uint64(s.limit)/uint64(entrySize) {
		s.err = fmt.Errorf("%s count %d exceeds file capacity", what, n)
		return false
	}
	return true
}

func (s *snapReader) read(p []byte) {
	if s.err != nil {
		return
	}
	_, s.err = io.ReadFull(s.r, p)
}

func (s *snapReader) u8() uint8 {
	s.read(s.buf[:1])
	return s.buf[0]
}

func (s *snapReader) bool() bool { return s.u8() != 0 }

func (s *snapReader) u32() uint32 {
	s.read(s.buf[:4])
	return binary.LittleEndian.Uint32(s.buf[:4])
}

func (s *snapReader) u64() uint64 {
	s.read(s.buf[:8])
	return binary.LittleEndian.Uint64(s.buf[:8])
}

func (s *snapReader) str() string {
	n := s.u32()
	if s.err != nil {
		return ""
	}
	if n > 1<<20 {
		s.err = fmt.Errorf("implausible string length %d", n)
		return ""
	}
	b := make([]byte, n)
	s.read(b)
	return string(b)
}

func (s *snapReader) column() ColumnSnapshot {
	var cs ColumnSnapshot
	cs.Table = s.str()
	cs.Attr = s.str()
	st := &cs.State
	st.Name = s.str()
	st.Sorted = s.bool()
	st.NextOID = bat.OID(s.u64())
	n := s.u64()
	if !s.count(n, 12, "column cardinality") { // 8 bytes/value + 4/oid
		return cs
	}
	st.Vals = make([]int64, n)
	for i := range st.Vals {
		st.Vals[i] = int64(s.u64())
	}
	st.OIDs = make([]bat.OID, n)
	for i := range st.OIDs {
		st.OIDs[i] = bat.OID(s.u32())
	}
	// Cut counts are not bounded by cardinality: distinct cut values may
	// share a position (tiny pieces under many predicates), so cuts are
	// bounded by file capacity only — core.ColumnFromState enforces the
	// real invariants.
	ncuts := s.u64()
	if !s.count(ncuts, 17, "cut") { // 8 val + 1 incl + 8 pos
		return cs
	}
	st.Cuts = make([]core.Cut, ncuts)
	for i := range st.Cuts {
		st.Cuts[i] = core.Cut{
			Val:  int64(s.u64()),
			Incl: s.bool(),
			Pos:  int(int64(s.u64())),
		}
	}
	npend := s.u64()
	if !s.count(npend, 12, "pending") { // 4 oid + 8 val
		return cs
	}
	st.Pending = make([]core.PendingState, npend)
	for i := range st.Pending {
		st.Pending[i] = core.PendingState{OID: bat.OID(s.u32()), Val: int64(s.u64())}
	}
	ndel := s.u64()
	if !s.count(ndel, 4, "deleted") {
		return cs
	}
	st.Deleted = make([]bat.OID, ndel)
	for i := range st.Deleted {
		st.Deleted[i] = bat.OID(s.u32())
	}
	if s.bool() {
		st.Strategy = &core.StrategyState{
			Name:     s.str(),
			MinPiece: int(int64(s.u64())),
			RNG:      s.u64(),
		}
	}
	return cs
}

func (s *snapReader) sidewaysSet() sideways.MapState {
	var ms sideways.MapState
	ms.Table = s.str()
	ms.Key = s.str()
	n := s.u64()
	if !s.count(n, 12, "sideways cardinality") { // 8 bytes/key + 4/oid
		return ms
	}
	ms.Keys = make([]int64, n)
	for i := range ms.Keys {
		ms.Keys[i] = int64(s.u64())
	}
	ms.OIDs = make([]bat.OID, n)
	for i := range ms.OIDs {
		ms.OIDs[i] = bat.OID(s.u32())
	}
	ncuts := s.u64()
	if !s.count(ncuts, 17, "sideways cut") { // 8 val + 1 incl + 8 pos
		return ms
	}
	ms.Cuts = make([]core.Cut, ncuts)
	for i := range ms.Cuts {
		ms.Cuts[i] = core.Cut{
			Val:  int64(s.u64()),
			Incl: s.bool(),
			Pos:  int(int64(s.u64())),
		}
	}
	if s.bool() {
		ms.Strategy = &core.StrategyState{
			Name:     s.str(),
			MinPiece: int(int64(s.u64())),
			RNG:      s.u64(),
		}
	}
	npays := s.u32()
	// Each payload carries n 8-byte values; bound the count by what the
	// file could hold so a bit-flipped field fails as corruption.
	if !s.count(uint64(npays), 4+8*max(int64(n), 1), "sideways payload") {
		return ms
	}
	for i := uint32(0); i < npays && s.err == nil; i++ {
		var p sideways.PayState
		p.Attr = s.str()
		p.Vals = make([]int64, n)
		for j := range p.Vals {
			p.Vals[j] = int64(s.u64())
		}
		ms.Pays = append(ms.Pays, p)
	}
	return ms
}
