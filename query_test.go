package crackdb

import (
	"math/rand"
	"sort"
	"testing"
)

func TestSelectWhereConjunction(t *testing.T) {
	s := newEventStore(t, 2000)
	res, err := s.SelectWhere("events",
		Cond{Col: "reading", Op: ">=", Val: 100},
		Cond{Col: "reading", Op: "<", Val: 300},
		Cond{Col: "sensor", Op: "=", Val: 3},
	)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := res.Rows("sensor", "reading")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("empty conjunction result on a broad workload")
	}
	for _, r := range rows {
		if r[0] != 3 || r[1] < 100 || r[1] >= 300 {
			t.Fatalf("row %v violates conjunction", r)
		}
	}
	// Agrees with the naive count over a single-column select + filter.
	all, err := s.SelectWhere("events")
	if err != nil {
		t.Fatal(err)
	}
	if all.Count() != 2000 {
		t.Fatalf("empty conjunction = %d rows, want all 2000", all.Count())
	}
	want := 0
	allRows, _ := all.Rows("sensor", "reading")
	for _, r := range allRows {
		if r[0] == 3 && r[1] >= 100 && r[1] < 300 {
			want++
		}
	}
	if len(rows) != want {
		t.Fatalf("conjunction found %d, naive %d", len(rows), want)
	}
}

func TestSelectWhereOperators(t *testing.T) {
	s := New()
	s.CreateTable("t", "a")
	s.InsertRows("t", [][]int64{{1}, {2}, {3}, {4}, {5}})
	cases := []struct {
		op   string
		val  int64
		want int
	}{
		{"<", 3, 2}, {"<=", 3, 3}, {"=", 3, 1}, {">=", 3, 3}, {">", 3, 2}, {"<>", 3, 4}, {"!=", 3, 4}, {"==", 3, 1},
	}
	for _, c := range cases {
		n, err := s.CountWhere("t", Cond{Col: "a", Op: c.op, Val: c.val})
		if err != nil {
			t.Fatalf("op %q: %v", c.op, err)
		}
		if n != c.want {
			t.Fatalf("op %q: count %d, want %d", c.op, n, c.want)
		}
	}
	if _, err := s.CountWhere("t", Cond{Col: "a", Op: "~", Val: 1}); err == nil {
		t.Fatal("unknown operator accepted")
	}
	if _, err := s.CountWhere("t", Cond{Col: "zzz", Op: "<", Val: 1}); err == nil {
		t.Fatal("unknown column accepted")
	}
	if _, err := s.CountWhere("missing", Cond{Col: "a", Op: "<", Val: 1}); err == nil {
		t.Fatal("unknown table accepted")
	}
}

func TestResultOIDs(t *testing.T) {
	s := New()
	s.CreateTable("t", "a")
	s.InsertRows("t", [][]int64{{30}, {10}, {20}})
	res, err := s.Select("t", "a", 10, 20)
	if err != nil {
		t.Fatal(err)
	}
	oids := res.OIDs()
	sort.Slice(oids, func(i, j int) bool { return oids[i] < oids[j] })
	if len(oids) != 2 || oids[0] != 1 || oids[1] != 2 {
		t.Fatalf("OIDs = %v, want [1 2]", oids)
	}
}

func TestTablesListing(t *testing.T) {
	s := New()
	s.CreateTable("b", "x")
	s.CreateTable("a", "x")
	got := s.Tables()
	if len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("Tables = %v", got)
	}
}

func TestDropTableClearsCrackedState(t *testing.T) {
	s := newEventStore(t, 100)
	if _, err := s.Select("events", "reading", 0, 500); err != nil {
		t.Fatal(err)
	}
	if err := s.DropTable("events"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Select("events", "reading", 0, 500); err == nil {
		t.Fatal("select on dropped table succeeded")
	}
	// Re-creating under the same name starts clean.
	if err := s.CreateTable("events", "x"); err != nil {
		t.Fatal(err)
	}
	n, err := s.NumRows("events")
	if err != nil || n != 0 {
		t.Fatalf("recreated table rows = %d, %v", n, err)
	}
}

func TestSelectWhereCracksOnlyDrivingColumn(t *testing.T) {
	s := New()
	if err := s.LoadTapestry("tap", 2000, 2, 5); err != nil {
		t.Fatal(err)
	}
	// Sharpen statistics on c0 with a narrow query.
	if _, err := s.Count("tap", "c0", 100, 120); err != nil {
		t.Fatal(err)
	}
	// A conjunction where c0 is far more selective than c1.
	if _, err := s.SelectWhere("tap",
		Cond{Col: "c0", Op: ">=", Val: 100},
		Cond{Col: "c0", Op: "<=", Val: 120},
		Cond{Col: "c1", Op: ">=", Val: 1},
	); err != nil {
		t.Fatal(err)
	}
	// c1 must have stayed virgin: the planner drove with c0.
	st, err := s.Stats("tap", "c1")
	if err != nil {
		t.Fatal(err)
	}
	if st.Cracks != 0 {
		t.Fatalf("planner cracked the unselective column: %+v", st)
	}
}

// TestConjunctionAllocs pins the executor's allocation profile. A
// single-range CountWhere on a converged column is answered from the
// crack window, so its allocations are a small constant, the same at
// width 10 as at width 50k. Rows gathers each projected column into one
// flat backing array, so reconstructing 50k rows allocates a constant
// handful, not one slice per row.
func TestConjunctionAllocs(t *testing.T) {
	const n = 100_000
	s := New()
	if err := s.CreateTable("t", "k", "v"); err != nil {
		t.Fatal(err)
	}
	rows := make([][]int64, n)
	for i, k := range rand.New(rand.NewSource(3)).Perm(n) {
		rows[i] = []int64{int64(k), int64(i)}
	}
	if err := s.InsertRows("t", rows); err != nil {
		t.Fatal(err)
	}
	rangeOf := func(lo, width int64) []Cond {
		return []Cond{{Col: "k", Op: ">=", Val: lo}, {Col: "k", Op: "<", Val: lo + width}}
	}
	narrow, wide := rangeOf(20_000, 10), rangeOf(40_000, 50_000)
	allocs := func(conds []Cond) float64 {
		// The first call cracks; from the second on the column answers
		// both bounds from its cut index.
		for i := 0; i < 2; i++ {
			if _, err := s.CountWhere("t", conds...); err != nil {
				t.Fatal(err)
			}
		}
		return testing.AllocsPerRun(50, func() {
			if _, err := s.CountWhere("t", conds...); err != nil {
				t.Fatal(err)
			}
		})
	}
	a10, a50k := allocs(narrow), allocs(wide)
	t.Logf("converged CountWhere allocations: %.1f at width 10, %.1f at width 50k", a10, a50k)
	if a10 != a50k || a50k > 8 {
		t.Fatalf("converged CountWhere allocates %.1f at width 10 and %.1f at width 50k, want equal and <= 8", a10, a50k)
	}
	if got, err := s.CountWhere("t", wide...); err != nil || got != 50_000 {
		t.Fatalf("CountWhere = %d, %v; want 50000", got, err)
	}

	res, err := s.SelectWhere("t", wide...)
	if err != nil {
		t.Fatal(err)
	}
	if a := testing.AllocsPerRun(10, func() {
		if _, err := res.Rows("k", "v"); err != nil {
			t.Fatal(err)
		}
	}); a > 8 {
		t.Fatalf("Rows(k, v) over %d rows allocates %.1f, want <= 8", res.Count(), a)
	}
	got, err := res.Rows("k", "v")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 50_000 {
		t.Fatalf("Rows returned %d rows, want 50000", len(got))
	}
	for _, r := range got {
		if k := r[0]; k < 40_000 || k >= 90_000 || rows[r[1]][0] != k {
			t.Fatalf("row %v is not a qualifying base tuple", r)
		}
	}
}
