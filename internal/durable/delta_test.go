package durable

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"crackdb/internal/bat"
	"crackdb/internal/core"
	"crackdb/internal/sideways"
)

func sampleColumn(table, attr string, n int) ColumnSnapshot {
	st := core.ColumnState{
		Name:    attr,
		NextOID: bat.OID(n + 3),
		Cuts: []core.Cut{
			{Val: 10, Incl: false, Pos: 2},
			{Val: 40, Incl: true, Pos: 5},
		},
		Pending: []core.PendingState{{OID: bat.OID(n), Val: 77}},
		Deleted: []bat.OID{1},
		Strategy: &core.StrategyState{
			Name: "mdd1r", MinPiece: 128, RNG: 0xdeadbeefcafe,
		},
	}
	for i := 0; i < n; i++ {
		st.Vals = append(st.Vals, int64(i*7%50))
		st.OIDs = append(st.OIDs, bat.OID(i))
	}
	return ColumnSnapshot{Table: table, Attr: attr, State: st}
}

func sampleDelta() *DeltaSnapshot {
	return &DeltaSnapshot{
		AppliedSeq: 42,
		PrevSum:    0x1234abcd,
		Config: StoreConfig{
			StrategyName: "ddc", StrategySeed: 7, MaxPieces: 4096,
			Ripple: true, SidewaysBudget: 3,
		},
		Tables: []DeltaTable{
			{Name: "cold", Cols: []string{"k", "v"}, Rows: 100, Deleted: []bat.OID{}},
			{Name: "hot", Cols: []string{"k", "v"}, Rows: 9, Deleted: []bat.OID{2, 5}, DataDirty: true},
		},
		Columns: []ColumnSnapshot{sampleColumn("hot", "k", 9)},
		Touched: []string{"hot"},
		Sideways: []sideways.MapState{{
			Table: "hot", Key: "k",
			Keys: []int64{1, 2, 3}, OIDs: []bat.OID{0, 1, 2},
			Cuts: []core.Cut{{Val: 2, Incl: true, Pos: 1}},
			Pays: []sideways.PayState{{Attr: "v", Vals: []int64{9, 8, 7}}},
		}},
		Tuner: []TunerState{{Table: "hot", Column: "k", Strategy: "ddr", Class: "seq", Flips: 3, Forced: true}},
	}
}

// TestDeltaRoundTrip: every field of a CRKD element survives the disk.
func TestDeltaRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "d.crk")
	d := sampleDelta()
	wsum, err := WriteDelta(path, d)
	if err != nil {
		t.Fatal(err)
	}
	got, rsum, err := ReadDelta(path)
	if err != nil {
		t.Fatal(err)
	}
	if wsum != rsum {
		t.Fatalf("write sum %08x, read sum %08x", wsum, rsum)
	}
	if !reflect.DeepEqual(d, got) {
		t.Fatalf("round trip diverged:\nwrote %+v\nread  %+v", d, got)
	}
}

// TestDeltaSumIdentifiesContent: the returned checksum must change with
// the content — it is the chain-link identity, so a constant would let
// any element link to any chain.
func TestDeltaSumIdentifiesContent(t *testing.T) {
	dir := t.TempDir()
	d := sampleDelta()
	s1, err := WriteDelta(filepath.Join(dir, "a.crk"), d)
	if err != nil {
		t.Fatal(err)
	}
	d.AppliedSeq++
	s2, err := WriteDelta(filepath.Join(dir, "b.crk"), d)
	if err != nil {
		t.Fatal(err)
	}
	if s1 == s2 {
		t.Fatalf("different content, same checksum %08x", s1)
	}
	// Same for legacy CRKS images, which still anchor the chains written
	// over them.
	b1 := writeLegacySnapshot(t, filepath.Join(dir, "s1.crk"), snapVersion, &StoreSnapshot{AppliedSeq: 1})
	b2 := writeLegacySnapshot(t, filepath.Join(dir, "s2.crk"), snapVersion, &StoreSnapshot{AppliedSeq: 2})
	if b1 == b2 {
		t.Fatalf("different snapshots, same checksum %08x", b1)
	}
}

// TestDeltaCorruptionRefused: any flipped byte or truncation must fail
// with ErrCorrupt, never decode to a different element.
func TestDeltaCorruptionRefused(t *testing.T) {
	path := filepath.Join(t.TempDir(), "d.crk")
	if _, err := WriteDelta(path, sampleDelta()); err != nil {
		t.Fatal(err)
	}
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	bad := filepath.Join(t.TempDir(), "bad.crk")
	for _, off := range []int{0, 5, len(orig) / 2, len(orig) - 2} {
		data := append([]byte(nil), orig...)
		data[off] ^= 0x20
		if err := os.WriteFile(bad, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := ReadDelta(bad); err == nil {
			t.Fatalf("flipped byte at %d decoded without error", off)
		}
	}
	if err := os.WriteFile(bad, orig[:len(orig)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReadDelta(bad); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("truncated delta: want ErrCorrupt, got %v", err)
	}
}

// writeLegacySnapshot encodes a snapshot in a legacy CRKS version — v1
// (no budget field, no sideways or tuner sections), v2 (budget and
// sideways, no tuner) or v3 (all three) — byte-compatible with what
// those releases wrote. Nothing in the program writes CRKS any more.
func writeLegacySnapshot(t testing.TB, path string, version uint8, s *StoreSnapshot) uint32 {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	crc := crc32.NewIEEE()
	w := io.MultiWriter(f, crc)
	buf := append([]byte{}, snapMagic[:]...)
	buf = append(buf, version)
	buf = binary.LittleEndian.AppendUint64(buf, s.AppliedSeq)
	buf = appendString(buf, s.Config.StrategyName)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(s.Config.StrategySeed))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(s.Config.MaxPieces))
	buf = appendBool(buf, s.Config.Ripple)
	if version >= 2 {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(s.Config.SidewaysBudget))
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(s.Columns)))
	if _, err := w.Write(buf); err != nil {
		t.Fatal(err)
	}
	for i := range s.Columns {
		if err := encodeColumn(w, &s.Columns[i]); err != nil {
			t.Fatal(err)
		}
	}
	if version >= 2 {
		var nsets [4]byte
		binary.LittleEndian.PutUint32(nsets[:], uint32(len(s.Sideways)))
		if _, err := w.Write(nsets[:]); err != nil {
			t.Fatal(err)
		}
		for i := range s.Sideways {
			if err := encodeSidewaysSet(w, &s.Sideways[i]); err != nil {
				t.Fatal(err)
			}
		}
	}
	if version >= 3 {
		tbuf := binary.LittleEndian.AppendUint32(nil, uint32(len(s.Tuner)))
		for _, ts := range s.Tuner {
			tbuf = appendString(tbuf, ts.Table)
			tbuf = appendString(tbuf, ts.Column)
			tbuf = appendString(tbuf, ts.Strategy)
			tbuf = appendString(tbuf, ts.Class)
			tbuf = binary.LittleEndian.AppendUint64(tbuf, ts.Flips)
			tbuf = appendBool(tbuf, ts.Forced)
		}
		if _, err := w.Write(tbuf); err != nil {
			t.Fatal(err)
		}
	}
	body := crc.Sum32()
	var sum [4]byte
	binary.LittleEndian.PutUint32(sum[:], body)
	if _, err := f.Write(sum[:]); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return body
}

// TestSnapshotVersionMatrix: v1, v2 and v3 images all open under the
// delta-aware reader, and a delta element links against each base kind
// — the chain never requires rewriting history in the current format.
func TestSnapshotVersionMatrix(t *testing.T) {
	base := &StoreSnapshot{
		AppliedSeq: 11,
		Config:     StoreConfig{StrategyName: "standard", MaxPieces: 1 << 14, SidewaysBudget: 4},
		Columns:    []ColumnSnapshot{sampleColumn("t", "k", 20)},
	}
	for _, tc := range []struct {
		version uint8
	}{{1}, {2}, {3}} {
		t.Run(map[uint8]string{1: "v1", 2: "v2", 3: "v3"}[tc.version], func(t *testing.T) {
			dir := t.TempDir()
			img := filepath.Join(dir, "crackstate.crk")
			sum := writeLegacySnapshot(t, img, tc.version, base)
			got, rsum, err := ReadSnapshotSum(img)
			if err != nil {
				t.Fatalf("v%d image refused: %v", tc.version, err)
			}
			if rsum != sum {
				t.Fatalf("v%d sum mismatch: wrote %08x read %08x", tc.version, sum, rsum)
			}
			if got.AppliedSeq != base.AppliedSeq || len(got.Columns) != 1 {
				t.Fatalf("v%d image decoded wrong: %+v", tc.version, got)
			}
			if tc.version == 1 && got.Config.SidewaysBudget != sideways.DefaultBudget {
				t.Fatalf("v1 image must default the sideways budget, got %d", got.Config.SidewaysBudget)
			}
			// A delta anchored to this base round-trips with the link intact.
			d := sampleDelta()
			d.PrevSum = sum
			dpath := filepath.Join(dir, "crackdelta.crk")
			if _, err := WriteDelta(dpath, d); err != nil {
				t.Fatal(err)
			}
			rd, _, err := ReadDelta(dpath)
			if err != nil {
				t.Fatal(err)
			}
			if rd.PrevSum != sum {
				t.Fatalf("delta lost its base link: %08x vs %08x", rd.PrevSum, sum)
			}
		})
	}
}
