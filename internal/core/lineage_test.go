package core_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"

	"crackdb/internal/bat"
	"crackdb/internal/core"
	"crackdb/internal/strategy"
)

// lineageFixture is the eight-tuple column of the paper's Figure 5 walk.
var lineageFixture = []int64{13, 4, 9, 2, 12, 7, 1, 19}

// registerOnly is a test strategy that never advises auxiliary pivots
// and registers exactly the query cuts whose value is in the map — the
// MDD1R discipline applied to one side of a range only.
type registerOnly map[int64]bool

func (registerOnly) Name() string { return "register-only" }

func (k registerOnly) AdviseCut(pc core.PieceContext) core.CutPlan {
	return core.CutPlan{RegisterQuery: k[pc.Val]}
}

// lineageSummary renders a lineage together with its size and leaf
// tiling, so a golden pins all four read methods at once: Node must
// find the first and last leaf and their ancestors under their IDs, or
// the summary says so.
func lineageSummary(lin *core.Lineage) string {
	var b strings.Builder
	b.WriteString(lin.Render())
	fmt.Fprintf(&b, "size %d leaves", lin.Size())
	leaves := lin.Leaves()
	for _, l := range leaves {
		fmt.Fprintf(&b, " %s[%d,%d)", l.Op, l.Lo, l.Hi)
	}
	for _, l := range []*core.PieceNode{leaves[0], leaves[len(leaves)-1]} {
		for n := l; n != nil; n = n.Parent {
			if m, ok := lin.Node(n.ID); !ok || m.Lo != n.Lo || m.Hi != n.Hi || m.Detail != n.Detail {
				fmt.Fprintf(&b, " Node(%s) mismatch", n.ID)
			}
		}
	}
	b.WriteString("\n")
	return b.String()
}

func randomCounts(c *core.Column, rng *rand.Rand, n int, domain, width int64) {
	for q := 0; q < n; q++ {
		lo := rng.Int63n(domain)
		c.Count(lo, lo+1+rng.Int63n(width), rng.Intn(2) == 0, rng.Intn(2) == 0)
	}
}

func randomVals(rng *rand.Rand, n int, domain int64) []int64 {
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = rng.Int63n(domain)
	}
	return vals
}

// TestLineageGolden pins Render (plus Size, Leaves and Node) byte-for-byte for
// every cracker that records lineage and every path that resets it.
// Short renders are compared literally; long ones by SHA-256.
func TestLineageGolden(t *testing.T) {
	cases := []struct {
		name  string
		build func() string
		want  string
	}{
		{"two-way cuts", func() string {
			c := core.NewColumn("t.a", lineageFixture)
			c.Select(math.MinInt64, 9, true, true)  // t.a <= 9
			c.Select(math.MinInt64, 5, true, false) // t.a < 5
			c.Select(12, math.MaxInt64, false, true)
			return lineageSummary(c.Lineage())
		}, `t.a[1] [0,8)
  t.a[2] Ξ(t.a <= 9) [0,5)
    t.a[4] Ξ(t.a < 5) [0,3)
    t.a[5] Ξ(t.a < 5) [3,5)
  t.a[3] Ξ(t.a <= 9) [5,8)
    t.a[6] Ξ(t.a <= 12) [5,6)
    t.a[7] Ξ(t.a <= 12) [6,8)
size 7 leaves Ξ[0,3) Ξ[3,5) Ξ[5,6) Ξ[6,8)
`},
		{"three-way then two-way", func() string {
			c := core.NewColumn("t.a", lineageFixture)
			c.Select(5, 10, true, false)
			c.Select(5, 15, true, true)
			return lineageSummary(c.Lineage())
		}, `t.a[1] [0,8)
  t.a[2] Ξ(t.a ∈ cut(5,10)) [0,3)
  t.a[3] Ξ(t.a ∈ cut(5,10)) [3,5)
  t.a[4] Ξ(t.a ∈ cut(5,10)) [5,8)
    t.a[5] Ξ(t.a <= 15) [5,7)
    t.a[6] Ξ(t.a <= 15) [7,8)
size 6 leaves Ξ[0,3) Ξ[3,5) Ξ[5,7) Ξ[7,8)
`},
		{"crack-in-three one side unregistered", func() string {
			c := core.NewColumn("t.a", lineageFixture, core.WithStrategy(registerOnly{3: true, 14: true}))
			c.SelectCopy(3, 10, true, false)  // registers t.a < 3 only
			c.SelectCopy(11, 14, true, false) // registers t.a < 14 only
			return lineageSummary(c.Lineage())
		}, `t.a[1] [0,8)
  t.a[2] Ξ(t.a ∈ cut(3,10)) [0,2)
  t.a[3] Ξ(t.a ∈ cut(3,10)) [2,8)
    t.a[4] Ξ(t.a ∈ cut(11,14)) [2,7)
    t.a[5] Ξ(t.a ∈ cut(11,14)) [7,8)
size 5 leaves Ξ[0,2) Ξ[2,7) Ξ[7,8)
`},
		{"mdd1r", func() string {
			rng := rand.New(rand.NewSource(3))
			c := core.NewColumn("t.a", randomVals(rng, 64, 100), core.WithStrategy(strategy.NewMDD1R(4, 7)))
			randomCounts(c, rng, 6, 100, 20)
			return lineageSummary(c.Lineage())
		}, `t.a[1] [0,64)
  t.a[2] Ξ(t.a < 8) [0,4)
  t.a[3] Ξ(t.a < 8) [4,64)
    t.a[4] Ξ(t.a < 94) [4,61)
      t.a[6] Ξ(t.a < 71) [4,40)
        t.a[8] Ξ(t.a < 33) [4,19)
          t.a[10] Ξ(t.a < 23) [4,14)
          t.a[11] Ξ(t.a < 23) [14,19)
        t.a[9] Ξ(t.a < 33) [19,40)
          t.a[12] Ξ(t.a < 44) [19,24)
          t.a[13] Ξ(t.a < 44) [24,40)
            t.a[14] Ξ(t.a < 69) [24,36)
              t.a[16] Ξ(t.a < 61) [24,31)
              t.a[17] Ξ(t.a < 61) [31,36)
            t.a[15] Ξ(t.a < 69) [36,40)
      t.a[7] Ξ(t.a < 71) [40,61)
    t.a[5] Ξ(t.a < 94) [61,64)
size 17 leaves Ξ[0,4) Ξ[4,14) Ξ[14,19) Ξ[19,24) Ξ[24,31) Ξ[31,36) Ξ[36,40) Ξ[40,61) Ξ[61,64)
`},
		{"join crack", func() string {
			r := core.NewColumn("r.k", []int64{5, 1, 9, 3, 7, 2, 8})
			s := core.NewColumn("s.k", []int64{3, 10, 5, 4, 8, 6})
			core.JoinCrack(r.Select(math.MinInt64, math.MaxInt64, true, true),
				s.Select(2, 9, true, true))
			return lineageSummary(r.Lineage()) + lineageSummary(s.Lineage())
		}, `r.k[1] [0,7)
  r.k[2] ^(⋉ s.k) [0,3)
  r.k[3] ^(⋉ s.k) [3,7)
size 3 leaves ^[0,3) ^[3,7)
s.k[1] [0,6)
  s.k[2] Ξ(s.k ∈ cut(2,9)) [0,5)
    s.k[4] ^(⋉ r.k) [0,3)
    s.k[5] ^(⋉ r.k) [3,5)
  s.k[3] Ξ(s.k ∈ cut(2,9)) [5,6)
size 5 leaves ^[0,3) ^[3,5) Ξ[5,6)
`},
		{"group crack", func() string {
			c := core.NewColumn("t.g", []int64{3, 1, 2, 3, 1, 3, 2, 2})
			core.GroupCrack(c)
			c.Select(2, 3, true, false)
			return lineageSummary(c.Lineage())
		}, `t.g[1] [0,8)
  t.g[2] Ω(group by t.g) [0,2)
  t.g[3] Ω(group by t.g) [2,5)
  t.g[4] Ω(group by t.g) [5,8)
size 4 leaves Ω[0,2) Ω[2,5) Ω[5,8)
`},
		{"sort all", func() string {
			c := core.NewColumn("t.a", lineageFixture)
			c.Select(5, 10, true, false)
			c.SortAll()
			c.Select(3, 12, false, true)
			return lineageSummary(c.Lineage())
		}, `t.a[1] [0,8)
  t.a[2] Ξ(t.a <= 3) [0,2)
  t.a[3] Ξ(t.a <= 3) [2,8)
    t.a[4] Ξ(t.a <= 12) [2,6)
    t.a[5] Ξ(t.a <= 12) [6,8)
size 5 leaves Ξ[0,2) Ξ[2,6) Ξ[6,8)
`},
		{"restored", func() string {
			c := core.NewColumn("t.a", lineageFixture)
			c.Select(5, 10, true, false)
			c.Select(12, 13, true, true)
			r, err := core.ColumnFromState(c.ExportState())
			if err != nil {
				return err.Error()
			}
			before := lineageSummary(r.Lineage())
			r.Select(1, 3, true, true)
			return before + lineageSummary(r.Lineage())
		}, `t.a[1] [0,8)
  t.a[2] Ξ(restored) [0,3)
  t.a[3] Ξ(restored) [3,5)
  t.a[4] Ξ(restored) [5,7)
  t.a[5] Ξ(restored) [7,8)
size 5 leaves Ξ[0,3) Ξ[3,5) Ξ[5,7) Ξ[7,8)
t.a[1] [0,8)
  t.a[2] Ξ(restored) [0,3)
    t.a[6] Ξ(t.a ∈ cut(1,3)) [0,2)
    t.a[7] Ξ(t.a ∈ cut(1,3)) [2,3)
  t.a[3] Ξ(restored) [3,5)
  t.a[4] Ξ(restored) [5,7)
  t.a[5] Ξ(restored) [7,8)
size 7 leaves Ξ[0,2) Ξ[2,3) Ξ[3,5) Ξ[5,7) Ξ[7,8)
`},
		{"consolidation reset", func() string {
			c := core.NewColumn("t.a", lineageFixture)
			c.Select(5, 10, true, false)
			c.Insert(6)
			c.Select(2, 8, true, true)
			return lineageSummary(c.Lineage())
		}, `t.a[1] [0,9)
  t.a[2] Ξ(t.a ∈ cut(2,8)) [0,1)
  t.a[3] Ξ(t.a ∈ cut(2,8)) [1,5)
  t.a[4] Ξ(t.a ∈ cut(2,8)) [5,9)
size 4 leaves Ξ[0,1) Ξ[1,5) Ξ[5,9)
`},
		{"ripple keeps lineage", func() string {
			c := core.NewColumn("t.a", lineageFixture, core.WithUpdateStrategy(core.MergeRipple))
			c.Select(5, 10, true, false)
			c.Insert(6)
			c.Insert(20)
			c.Select(6, 16, true, true)
			c.Select(1, 7, true, false)
			return lineageSummary(c.Lineage())
		}, `t.a[1] [0,8)
  t.a[2] Ξ(t.a ∈ cut(5,10)) [0,3)
  t.a[3] Ξ(t.a ∈ cut(5,10)) [3,5)
  t.a[4] Ξ(t.a ∈ cut(5,10)) [5,8)
size 4 leaves Ξ[0,3) Ξ[3,5) Ξ[5,8)
`},
		{"random standard", func() string {
			rng := rand.New(rand.NewSource(11))
			c := core.NewColumn("r.v", randomVals(rng, 2000, 5000))
			randomCounts(c, rng, 400, 5000, 300)
			return lineageSummary(c.Lineage())
		}, "sha256:1fdeda57137aec338e8d4846421aff508ac717d9f50725c9086dcccdf5aa39e9"},
		{"random fused", func() string {
			rng := rand.New(rand.NewSource(12))
			c := core.NewColumn("r.v", randomVals(rng, 2000, 5000), core.WithMaxPieces(24))
			randomCounts(c, rng, 300, 5000, 300)
			return lineageSummary(c.Lineage())
		}, "sha256:18b6ea584f3637385d11dc6e8378bd3bd676927c62512f3bdc63ff6dc430d8e9"},
		{"random mdd1r minpiece", func() string {
			rng := rand.New(rand.NewSource(13))
			c := core.NewColumn("r.v", randomVals(rng, 2000, 5000),
				core.WithStrategy(strategy.NewMDD1R(16, 5)), core.WithMinPieceSize(8))
			randomCounts(c, rng, 300, 5000, 300)
			return lineageSummary(c.Lineage())
		}, "sha256:3c7ffe0f6d79a88f307bace4ec5c268145b9c4624e33a91522995772822ad4c3"},
		{"random ripple with deletes", func() string {
			rng := rand.New(rand.NewSource(14))
			c := core.NewColumn("r.v", randomVals(rng, 1000, 3000), core.WithUpdateStrategy(core.MergeRipple))
			for round := 0; round < 40; round++ {
				randomCounts(c, rng, 5, 3000, 200)
				c.Insert(rng.Int63n(3000))
				c.Delete(bat.OID(rng.Int63n(1000)))
			}
			return lineageSummary(c.Lineage())
		}, "sha256:717fbbac2c952d5b837b642a53488e011b32ba1d2867cc925268a3be21da5006"},
		{"random joins", func() string {
			rng := rand.New(rand.NewSource(15))
			r := core.NewColumn("r.k", randomVals(rng, 500, 800))
			s := core.NewColumn("s.k", randomVals(rng, 400, 800))
			for round := 0; round < 10; round++ {
				randomCounts(r, rng, 10, 800, 100)
				randomCounts(s, rng, 10, 800, 100)
				lo := rng.Int63n(700)
				core.JoinCrack(r.Select(lo, lo+100, true, false), s.Select(lo, lo+150, true, true))
			}
			return lineageSummary(r.Lineage()) + lineageSummary(s.Lineage())
		}, "sha256:74499faceb10b145c117e6ce2c862c7cb120d841699ce40bb19f762884809ca2"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := tc.build()
			if strings.HasPrefix(tc.want, "sha256:") {
				sum := sha256.Sum256([]byte(got))
				got = "sha256:" + hex.EncodeToString(sum[:])
			}
			if got != tc.want {
				t.Fatalf("lineage changed:\n got:\n%s\nwant:\n%s", got, tc.want)
			}
		})
	}
}

// TestCrackBookkeepingCost bounds what a registered crack costs beyond
// the partition itself: lineage and cut-index bookkeeping must stay off
// the allocator (≤ 4 allocations per cracking query) and retain little
// heap (≤ 128 B per registered cut). 50k random 100-wide counts over
// 1M rows keep nearly every query cracking.
func TestCrackBookkeepingCost(t *testing.T) {
	const (
		rows    = 1_000_000
		queries = 50_000
		width   = 100
	)
	rng := rand.New(rand.NewSource(1))
	c := core.NewColumn("t.a", randomVals(rng, rows, rows))
	los := make([]int64, queries)
	for i := range los {
		los[i] = rng.Int63n(rows - width)
	}

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	cracking, cracks := 0, c.Stats().Cracks
	start := time.Now()
	for _, lo := range los {
		c.Count(lo, lo+width, true, false)
		if n := c.Stats().Cracks; n != cracks {
			cracking, cracks = cracking+1, n
		}
	}
	elapsed := time.Since(start)
	runtime.GC()
	runtime.ReadMemStats(&after)
	cuts := c.Pieces() - 1
	runtime.KeepAlive(c)

	allocs := float64(after.Mallocs-before.Mallocs) / float64(cracking)
	perCut := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / float64(cuts)
	t.Logf("%d cracking queries of %d, %d cuts: %.0f ns/query, %.2f allocs/cracking query, %.0f B retained/cut",
		cracking, queries, cuts, float64(elapsed.Nanoseconds())/queries, allocs, perCut)
	if allocs > 4 {
		t.Errorf("%.2f allocations per cracking query, want <= 4", allocs)
	}
	if perCut > 128 {
		t.Errorf("%.0f B retained per registered cut, want <= 128", perCut)
	}
}
