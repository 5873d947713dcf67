package durable

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"crackdb/internal/bat"
	"crackdb/internal/sideways"
)

// Chain elements (CRKD): the one on-disk image format. A store image is
// a chain of elements applied in order to an empty store. Element 0 has
// no predecessor (PrevSum 0): every table is DataDirty and every cracked
// column, sideways map and tuner record rides in it — a full image. Each
// later element carries only what changed since its predecessor and is
// chained to it by checksum. The paper argues reorganization cost
// should track what queries touch; a full image rewrites every column's
// state whether or not a single query or insert reached it since the
// last save. The natural delta unit is the column: an element carries
// the complete state of each column whose fingerprint moved since its
// predecessor, and nothing for the (typically vast) remainder.
//
// File layout:
//
//	magic      [4]byte  "CRKD"
//	version    uint8    1
//	appliedSeq uint64   WAL seq the chain covers through this element
//	prevSum    uint32   the predecessor's CRC-32 trailer value, 0 for
//	                    element 0 (a legacy CRKS base is named by its
//	                    own trailer) — opening a chain verifies each
//	                    link before applying the element
//	ntables    uint32   authoritative table manifest (see DeltaTable)
//	tables     ntables × (name, cols, rows, tombstones, dataDirty)
//	config     store-wide crack configuration at save time (full copy;
//	           the final chain element's config wins)
//	ncols      uint32
//	columns    ncols × column records — changed columns only (all of
//	           them in element 0), encoded as in the legacy CRKS format
//	ntouch     uint32   tables whose sideways maps this element carries
//	touched    ntouch × string
//	nsets      uint32   sideways map spines for touched tables (complete
//	           per-table set; apply replaces the table's maps wholesale)
//	sideways   nsets × map records
//	ntune      uint32   tuner posture (full copy; latest element wins)
//	tuner      ntune × records
//	crc        uint32   CRC-32 (IEEE) of everything above
//
// The table manifest is complete, not differential: a table absent from
// it was dropped, a table with DataDirty carries rewritten BAT images
// alongside the element file, and a clean table must already exist
// (from an earlier element) with matching shape — a mismatch refuses
// the whole chain rather than silently reopening cold.

var deltaMagic = [4]byte{'C', 'R', 'K', 'D'}

const deltaVersion = 1

// DeltaTable is one entry of an element's authoritative table manifest.
type DeltaTable struct {
	Name string
	Cols []string
	Rows int // physical base cardinality, tombstoned rows included

	// Deleted is the complete tombstone set at save time (cheap: deletes
	// are rare and the set is bounded by consolidation).
	Deleted []bat.OID

	// DataDirty marks tables whose base vectors changed since the chain
	// predecessor; their BAT images are rewritten next to the delta file
	// and replace the prior ones on apply.
	DataDirty bool
}

// DeltaSnapshot is one element of a checkpoint chain.
type DeltaSnapshot struct {
	AppliedSeq uint64
	PrevSum    uint32
	Config     StoreConfig
	Tables     []DeltaTable
	Columns    []ColumnSnapshot // columns whose crack state changed
	Touched    []string         // tables whose sideways maps are carried
	Sideways   []sideways.MapState
	Tuner      []TunerState
}

// WriteDelta serializes the element to path atomically (temp file + rename,
// fsync before the rename) and returns the element's checksum (its
// CRC-32 trailer value) — what the next chain element records as its
// PrevSum.
func WriteDelta(path string, d *DeltaSnapshot) (uint32, error) {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return 0, err
	}
	fail := func(err error) (uint32, error) {
		f.Close()
		os.Remove(tmp)
		return 0, err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	crc := crc32.NewIEEE()
	w := io.MultiWriter(bw, crc)

	if err := encodeDelta(w, d); err != nil {
		return fail(err)
	}
	body := crc.Sum32()
	var sum [4]byte
	binary.LittleEndian.PutUint32(sum[:], body)
	if _, err := bw.Write(sum[:]); err != nil {
		return fail(err)
	}
	if err := bw.Flush(); err != nil {
		return fail(err)
	}
	if err := f.Sync(); err != nil {
		return fail(err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return 0, err
	}
	if err := os.Rename(tmp, path); err != nil {
		return 0, err
	}
	return body, nil
}

func encodeDelta(w io.Writer, d *DeltaSnapshot) error {
	buf := make([]byte, 0, 1<<16)
	buf = append(buf, deltaMagic[:]...)
	buf = append(buf, deltaVersion)
	buf = binary.LittleEndian.AppendUint64(buf, d.AppliedSeq)
	buf = binary.LittleEndian.AppendUint32(buf, d.PrevSum)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(d.Tables)))
	for _, t := range d.Tables {
		buf = appendString(buf, t.Name)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(t.Cols)))
		for _, c := range t.Cols {
			buf = appendString(buf, c)
		}
		buf = binary.LittleEndian.AppendUint64(buf, uint64(t.Rows))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(len(t.Deleted)))
		for _, o := range t.Deleted {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(o))
		}
		buf = appendBool(buf, t.DataDirty)
	}
	buf = appendString(buf, d.Config.StrategyName)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(d.Config.StrategySeed))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(d.Config.MaxPieces))
	buf = appendBool(buf, d.Config.Ripple)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(d.Config.SidewaysBudget))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(d.Columns)))
	if _, err := w.Write(buf); err != nil {
		return err
	}
	for i := range d.Columns {
		if err := encodeColumn(w, &d.Columns[i]); err != nil {
			return err
		}
	}
	tail := make([]byte, 0, 1<<12)
	tail = binary.LittleEndian.AppendUint32(tail, uint32(len(d.Touched)))
	for _, t := range d.Touched {
		tail = appendString(tail, t)
	}
	tail = binary.LittleEndian.AppendUint32(tail, uint32(len(d.Sideways)))
	if _, err := w.Write(tail); err != nil {
		return err
	}
	for i := range d.Sideways {
		if err := encodeSidewaysSet(w, &d.Sideways[i]); err != nil {
			return err
		}
	}
	tbuf := make([]byte, 0, 1<<10)
	tbuf = binary.LittleEndian.AppendUint32(tbuf, uint32(len(d.Tuner)))
	for _, t := range d.Tuner {
		tbuf = appendString(tbuf, t.Table)
		tbuf = appendString(tbuf, t.Column)
		tbuf = appendString(tbuf, t.Strategy)
		tbuf = appendString(tbuf, t.Class)
		tbuf = binary.LittleEndian.AppendUint64(tbuf, t.Flips)
		tbuf = appendBool(tbuf, t.Forced)
	}
	_, err := w.Write(tbuf)
	return err
}

// ReadDelta loads and validates an element written by WriteDelta, returning
// the decoded element and its verified checksum (the CRC-32 trailer
// value the next chain element must carry as PrevSum).
func ReadDelta(path string) (*DeltaSnapshot, uint32, error) {
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
	r := &snapReader{r: io.TeeReader(br, crc), limit: fi.Size()}

	var magic [4]byte
	r.read(magic[:])
	if r.err != nil || magic != deltaMagic {
		return nil, 0, fmt.Errorf("%w: bad delta magic", ErrCorrupt)
	}
	version := r.u8()
	if r.err == nil && version != deltaVersion {
		return nil, 0, fmt.Errorf("durable: unsupported delta version %d", version)
	}
	d := &DeltaSnapshot{}
	d.AppliedSeq = r.u64()
	d.PrevSum = r.u32()
	ntab := r.u32()
	if !r.count(uint64(ntab), 21, "delta table") { // name + cols + rows + ndel + dirty minimum
		return nil, 0, fmt.Errorf("%w: %v", ErrCorrupt, r.err)
	}
	for i := uint32(0); i < ntab && r.err == nil; i++ {
		var t DeltaTable
		t.Name = r.str()
		ncols := r.u32()
		if !r.count(uint64(ncols), 4, "delta table column") {
			return nil, 0, fmt.Errorf("%w: %v", ErrCorrupt, r.err)
		}
		for j := uint32(0); j < ncols && r.err == nil; j++ {
			t.Cols = append(t.Cols, r.str())
		}
		t.Rows = int(int64(r.u64()))
		ndel := r.u64()
		if !r.count(ndel, 4, "delta tombstone") {
			return nil, 0, fmt.Errorf("%w: %v", ErrCorrupt, r.err)
		}
		t.Deleted = make([]bat.OID, ndel)
		for j := range t.Deleted {
			t.Deleted[j] = bat.OID(r.u32())
		}
		t.DataDirty = r.bool()
		d.Tables = append(d.Tables, t)
	}
	d.Config.StrategyName = r.str()
	d.Config.StrategySeed = int64(r.u64())
	d.Config.MaxPieces = int(int64(r.u64()))
	d.Config.Ripple = r.bool()
	d.Config.SidewaysBudget = int(int64(r.u64()))
	ncols := r.u32()
	if !r.count(uint64(ncols), 16, "delta column") {
		return nil, 0, fmt.Errorf("%w: %v", ErrCorrupt, r.err)
	}
	for i := uint32(0); i < ncols && r.err == nil; i++ {
		d.Columns = append(d.Columns, r.column())
	}
	ntouch := r.u32()
	if !r.count(uint64(ntouch), 4, "touched table") {
		return nil, 0, fmt.Errorf("%w: %v", ErrCorrupt, r.err)
	}
	for i := uint32(0); i < ntouch && r.err == nil; i++ {
		d.Touched = append(d.Touched, r.str())
	}
	nsets := r.u32()
	if !r.count(uint64(nsets), 21, "delta sideways map") {
		return nil, 0, fmt.Errorf("%w: %v", ErrCorrupt, r.err)
	}
	for i := uint32(0); i < nsets && r.err == nil; i++ {
		d.Sideways = append(d.Sideways, r.sidewaysSet())
	}
	ntune := r.u32()
	if !r.count(uint64(ntune), 21, "delta tuner posture") {
		return nil, 0, fmt.Errorf("%w: %v", ErrCorrupt, r.err)
	}
	for i := uint32(0); i < ntune && r.err == nil; i++ {
		d.Tuner = append(d.Tuner, TunerState{
			Table:    r.str(),
			Column:   r.str(),
			Strategy: r.str(),
			Class:    r.str(),
			Flips:    r.u64(),
			Forced:   r.bool(),
		})
	}
	if r.err != nil {
		return nil, 0, fmt.Errorf("%w: %v", ErrCorrupt, r.err)
	}
	want := crc.Sum32()
	var sum [4]byte
	if _, err := io.ReadFull(br, sum[:]); err != nil {
		return nil, 0, fmt.Errorf("%w: missing delta checksum: %v", ErrCorrupt, err)
	}
	if got := binary.LittleEndian.Uint32(sum[:]); got != want {
		return nil, 0, fmt.Errorf("%w: delta checksum mismatch (got %08x want %08x)", ErrCorrupt, got, want)
	}
	return d, want, nil
}
