package durable

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"crackdb/internal/bat"
	"crackdb/internal/core"
	"crackdb/internal/sideways"
)

// Native fuzz targets for the durability decode paths: any mutated WAL,
// chain element or legacy snapshot image must fail cleanly — an
// error (or a silently truncated replay prefix for WAL tails, which is
// the designed crash semantics), never a panic and never an allocation
// driven by a corrupt length field instead of by the actual file size.
// The seed corpus under testdata/fuzz covers valid images, truncations
// and bit flips; CI runs each target for 30 seconds (fuzz-smoke job).

// fuzzWALBytes builds a valid WAL image holding the canonical record set.
func fuzzWALBytes(tb testing.TB) []byte {
	tb.Helper()
	dir, err := os.MkdirTemp("", "crackdb-fuzzseed-*")
	if err != nil {
		tb.Fatal(err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "wal.log")
	w, err := Create(path, 3)
	if err != nil {
		tb.Fatal(err)
	}
	for _, r := range testRecords() {
		if _, err := w.Append(r); err != nil {
			tb.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		tb.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

// fuzzSnapshotBytes builds a valid legacy CRKS image (version 3) with
// column, sideways and tuner sections.
func fuzzSnapshotBytes(tb testing.TB) []byte {
	tb.Helper()
	dir, err := os.MkdirTemp("", "crackdb-fuzzseed-*")
	if err != nil {
		tb.Fatal(err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "snap.crk")
	snap := &StoreSnapshot{
		AppliedSeq: 11,
		Config: StoreConfig{
			StrategyName: "mdd1r", StrategySeed: 5, MaxPieces: 64, SidewaysBudget: 4,
		},
		Columns: []ColumnSnapshot{{
			Table: "t", Attr: "k",
			State: core.ColumnState{
				Name: "t.k",
				Vals: []int64{5, 1, 9, 7}, OIDs: []bat.OID{1, 0, 3, 2},
				Cuts:    []core.Cut{{Val: 6, Incl: false, Pos: 2}},
				NextOID: 5,
				Pending: []core.PendingState{{OID: 4, Val: 2}},
				Strategy: &core.StrategyState{
					Name: "mdd1r", MinPiece: 2048, RNG: 77,
				},
			},
		}},
		Sideways: []sideways.MapState{{
			Table: "t", Key: "k",
			Keys: []int64{1, 5, 7, 9}, OIDs: []bat.OID{0, 1, 2, 3},
			Cuts:     []core.Cut{{Val: 6, Incl: true, Pos: 2}},
			Strategy: &core.StrategyState{Name: "mdd1r", MinPiece: 2048, RNG: 13},
			Pays:     []sideways.PayState{{Attr: "v", Vals: []int64{10, 20, 30, 40}}},
		}},
		Tuner: []TunerState{{Table: "t", Column: "k", Strategy: "mdd1r", Class: "sequential", Flips: 2}},
	}
	writeLegacySnapshot(tb, path, snapVersion, snap)
	b, err := os.ReadFile(path)
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

// fuzzDeltaBytes builds a valid chain element from sampleDelta.
func fuzzDeltaBytes(tb testing.TB) []byte {
	tb.Helper()
	dir, err := os.MkdirTemp("", "crackdb-fuzzseed-*")
	if err != nil {
		tb.Fatal(err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "crackdelta.crk")
	if _, err := WriteDelta(path, sampleDelta()); err != nil {
		tb.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

func addMutations(f *testing.F, valid []byte) {
	f.Add(valid)
	if len(valid) > 3 {
		f.Add(valid[:len(valid)/2]) // truncation
		f.Add(valid[:len(valid)-1]) // torn final byte
		flip := append([]byte(nil), valid...)
		flip[len(flip)/3] ^= 0x40 // bit flip in the body
		f.Add(flip)
		big := append([]byte(nil), valid...)
		big[0], big[1], big[2], big[3] = 0xff, 0xff, 0xff, 0x7f // absurd leading field
		f.Add(big)
	}
	f.Add([]byte{})
	f.Add([]byte("not a database image at all"))
}

// FuzzWALScan feeds arbitrary bytes to the WAL open/replay path. The
// contract: no panic, allocations bounded by the file size, and when
// the open succeeds the replayed prefix re-opens to the same prefix
// (recovery is idempotent).
func FuzzWALScan(f *testing.F) {
	addMutations(f, fuzzWALBytes(f))
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "wal.log")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Skip()
		}
		var replayed []Record
		w, err := Open(path, 0, func(_ uint64, r Record) error {
			replayed = append(replayed, r)
			return nil
		})
		if err != nil {
			return // clean refusal
		}
		if err := w.Close(); err != nil {
			t.Fatalf("close after successful open: %v", err)
		}
		// Idempotence: the truncated file must replay the same records.
		var again []Record
		w2, err := Open(path, 0, func(_ uint64, r Record) error {
			again = append(again, r)
			return nil
		})
		if err != nil {
			t.Fatalf("reopen of a recovered WAL failed: %v", err)
		}
		defer w2.Close()
		if len(again) != len(replayed) {
			t.Fatalf("replay not idempotent: %d then %d records", len(replayed), len(again))
		}
	})
}

// FuzzRecordDecode feeds arbitrary payloads to the record decoder; a
// successful decode must re-encode and decode to the same record.
func FuzzRecordDecode(f *testing.F) {
	var buf []byte
	for _, r := range testRecords() {
		f.Add(append([]byte(nil), encodeRecord(buf[:0], r)...))
	}
	f.Add([]byte{})
	f.Add([]byte{0xff})
	f.Add([]byte{2, 1, 0, 0, 0, 't', 0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, err := decodeRecord(data)
		if err != nil {
			return
		}
		enc := encodeRecord(nil, rec)
		rec2, err := decodeRecord(enc)
		if err != nil {
			t.Fatalf("re-decode of re-encoded record failed: %v", err)
		}
		enc2 := encodeRecord(nil, rec2)
		if !bytes.Equal(enc, enc2) {
			t.Fatalf("record not stable under encode/decode: %x vs %x", enc, enc2)
		}
	})
}

// FuzzSnapshotDecode feeds arbitrary bytes to the legacy CRKS reader: no
// panic, no corrupt-length-driven allocation, and a successful read must
// survive the path a legacy image takes now — adapted into element 0,
// written as a chain element, and read back with a stable encoding.
func FuzzSnapshotDecode(f *testing.F) {
	addMutations(f, fuzzSnapshotBytes(f))
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "snap.crk")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Skip()
		}
		snap, _, err := ReadSnapshotSum(path)
		if err != nil {
			return // clean refusal
		}
		tables := []DeltaTable{{Name: "t", Cols: []string{"k", "v"}, Rows: 4, DataDirty: true}}
		elementRoundTrip(t, dir, snap.Element(tables))
	})
}

// FuzzDeltaDecode feeds arbitrary bytes to the chain element reader —
// the one format the program writes — under the same contract.
func FuzzDeltaDecode(f *testing.F) {
	addMutations(f, fuzzDeltaBytes(f))
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "crackdelta.crk")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Skip()
		}
		d, _, err := ReadDelta(path)
		if err != nil {
			return // clean refusal
		}
		elementRoundTrip(t, dir, d)
	})
}

// elementRoundTrip writes d, reads it back, and writes it again: the
// re-read must succeed and both encodings must be byte-identical.
func elementRoundTrip(t *testing.T, dir string, d *DeltaSnapshot) {
	t.Helper()
	p1, p2 := filepath.Join(dir, "e1.crk"), filepath.Join(dir, "e2.crk")
	if _, err := WriteDelta(p1, d); err != nil {
		t.Fatalf("write of decoded element failed: %v", err)
	}
	again, _, err := ReadDelta(p1)
	if err != nil {
		t.Fatalf("re-read of re-written element failed: %v", err)
	}
	if _, err := WriteDelta(p2, again); err != nil {
		t.Fatal(err)
	}
	b1, err1 := os.ReadFile(p1)
	b2, err2 := os.ReadFile(p2)
	if err1 != nil || err2 != nil || !bytes.Equal(b1, b2) {
		t.Fatalf("element not stable under write/read (%v, %v)", err1, err2)
	}
}
