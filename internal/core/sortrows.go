package core

import (
	"cmp"
	"slices"
)

// SortRows sorts tuples lexicographically (first column, then second,
// ...; shorter rows order before their extensions) in place. It is the
// canonical result order used when merging selections from several
// cracker stores: each shard returns tuples in its own crack order,
// which depends on that shard's query history, so a sharded select has
// no natural physical order. Sorting the merged rows makes the result a
// pure function of the qualifying tuple set — byte-identical however
// the table is partitioned.
//
// The sort runs over a flat array of (first column, row index) keys, so
// the common comparison reads no row through its pointer; only keys
// that tie on the first column fall back to the full compare.
func SortRows(rows [][]int64) {
	if len(rows) < 2 {
		return
	}
	keys := make([]rowKey, len(rows))
	for i, r := range rows {
		if len(r) == 0 {
			// An empty row orders before every other; no first-column key
			// can say so.
			slices.SortFunc(rows, slices.Compare[[]int64])
			return
		}
		keys[i] = rowKey{first: r[0], idx: i}
	}
	slices.SortFunc(keys, func(a, b rowKey) int {
		if c := cmp.Compare(a.first, b.first); c != 0 {
			return c
		}
		return slices.Compare(rows[a.idx], rows[b.idx])
	})
	sorted := append([][]int64(nil), rows...)
	for i, k := range keys {
		rows[i] = sorted[k.idx]
	}
}

// rowKey is one row's sort key: its first column and its position.
type rowKey struct {
	first int64
	idx   int
}

// rowLess is the lexicographic order on tuples.
func rowLess(a, b []int64) bool { return slices.Compare(a, b) < 0 }
