package core

import (
	"fmt"
	"math/bits"
	"slices"
	"strconv"
	"strings"
)

// Lineage is the administration of where pieces came from: "we have to
// administer the lineage of each piece, i.e. its source and the Ξ, Ψ, ^
// or Ω operators applied" (paper §3.2). It is a DAG of piece nodes whose
// rendering reproduces the trees of Figures 5 and 6, and it supports the
// loss-less reconstruction guarantee: the original table is recoverable
// from the leaves.
//
// The DAG is stored as an append-only crack log. Crackers append one
// fixed-size, pointer-free record per registered crack under the column
// write lock they already hold: no node allocation, no string
// formatting, no leaf lookup. Readers (Render, Leaves, Size, Node)
// rebuild the DAG by replaying the log. A crack whose piece no longer
// lies inside one lineage leaf — fusion, a ^ crack or a ripple merge
// moved the index's cuts away from the recorded ones — attaches nothing
// at replay.
type Lineage struct {
	table  string
	n      int    // the root piece is [0, n)
	detail string // how the root was produced ("" for a fresh column)
	log    []crackRec
	cuts   []int    // split positions of n-way records
	joined []string // partner columns of ^ records
	kept   int      // records left by the last compaction
}

// PieceNode is one piece in the lineage DAG.
type PieceNode struct {
	ID       string // e.g. "R[4]"
	Op       string // cracker that produced it: "Ξ", "Ψ", "^", "Ω"; "" for roots
	Detail   string // human-readable predicate or operand, e.g. "a < 10"
	Lo, Hi   int    // physical location at creation time
	Parent   *PieceNode
	Children []*PieceNode
}

// crackKind says which cracker a log record comes from; the node detail
// is formatted from it at replay.
type crackKind uint8

const (
	crackCut     crackKind = iota // Ξ crack-in-two: "col <= v1" / "col < v1"
	crackRange                    // Ξ crack-in-three: "col ∈ cut(v1,v2)"
	crackJoin                     // ^: "⋉ joined[v1]"
	crackGroup                    // Ω, n-way
	crackRestore                  // Ξ "restored", n-way
)

// crackRec is one logged crack of the piece [lo, hi). Two- and
// three-way cracks split it at m1 <= m2 into the non-empty ones of
// [lo,m1), [m1,m2) and [m2,hi); n-way cracks split it at cuts[m1:m2].
type crackRec struct {
	lo, hi, m1, m2 int
	v1, v2         int64 // bound values; crackJoin: index into joined
	kind           crackKind
	incl           bool // crackCut: the cut is <= v1
}

// snapshot returns a read-only copy sharing the log. Records are never
// rewritten in place (compaction builds new slices), so the copy stays
// valid while the column keeps appending.
func (l *Lineage) snapshot() *Lineage {
	s := *l
	s.log, s.cuts, s.joined = slices.Clip(s.log), slices.Clip(s.cuts), slices.Clip(s.joined)
	return &s
}

// partner interns the name of a ^ crack's partner column.
func (l *Lineage) partner(name string) int64 {
	at := slices.Index(l.joined, name)
	if at < 0 {
		at = len(l.joined)
		l.joined = append(l.joined, name)
	}
	return int64(at)
}

// splitRoot logs an n-way crack of the root at the given ascending
// positions. Only a fresh lineage is split this way (Ω right after its
// sort, restore right after rebuilding the column).
func (l *Lineage) splitRoot(kind crackKind, at []int) {
	if len(at) == 0 {
		return
	}
	l.cuts = append(l.cuts, at...)
	l.log = append(l.log, crackRec{kind: kind, hi: l.n, m1: len(l.cuts) - len(at), m2: len(l.cuts)})
}

// record appends one crack. live bounds the records that can still
// attach: each attaching Ξ record registered at least one cut, so a log
// that outgrows twice the index (and twice its last compacted size) is
// mostly cracks of pieces fusion, ^ or ripple merges have moved, and is
// compacted. Without fusion or ^ the log never outgrows the index.
func (l *Lineage) record(r crackRec, live int) {
	l.log = append(l.log, r)
	if len(l.log) > 2*max(l.kept, live)+64 {
		l.compact()
	}
}

// compact drops the records replay would skip. It writes a fresh log,
// leaving the one earlier snapshots share untouched. cuts needs no
// compaction: only the first record of a log splits n ways.
func (l *Lineage) compact() {
	log := make([]crackRec, 0, len(l.log)/2)
	l.replay(func(r *crackRec, _ int, _ [][2]int) { log = append(log, *r) })
	l.log, l.kept = log, len(log)
}

// replay walks the log in order and calls split for every record that
// cracks a current leaf, with the leaf's node number and the non-empty
// child ranges (valid only during the call). Nodes are numbered in
// creation order from the root, 0.
//
// Leaves are disjoint and, apart from an empty root, non-empty, so the
// leaf holding position lo is the one with the greatest start <= lo; a
// bitmap of leaf starts finds it by scanning back to the previous set
// bit.
func (l *Lineage) replay(split func(r *crackRec, parent int, children [][2]int)) {
	span := l.n
	for i := range l.log {
		span = max(span, l.log[i].hi)
	}
	type leaf struct{ node, hi int }
	starts := make([]uint64, span/64+1)
	leaves := make(map[int]leaf)
	setLeaf := func(lo, hi, node int) {
		starts[lo/64] |= 1 << (lo % 64)
		leaves[lo] = leaf{node, hi}
	}
	if l.n > 0 {
		setLeaf(0, l.n, 0)
	}
	nodes := 1
	var bounds []int
	var children [][2]int
	for i := range l.log {
		r := &l.log[i]
		w := r.lo / 64
		word := starts[w] & (2<<(r.lo%64) - 1)
		for word == 0 && w > 0 {
			w--
			word = starts[w]
		}
		if word == 0 {
			continue
		}
		lo := w*64 + 63 - bits.LeadingZeros64(word)
		parent := leaves[lo]
		if r.hi > parent.hi {
			continue
		}
		if r.kind >= crackGroup {
			bounds = append(append(bounds[:0], l.cuts[r.m1:r.m2]...), r.hi)
		} else {
			bounds = append(bounds[:0], r.m1, r.m2, r.hi)
		}
		children = children[:0]
		prev := r.lo
		for _, p := range bounds {
			if p > prev {
				children = append(children, [2]int{prev, p})
			}
			prev = p
		}
		if len(children) < 2 {
			continue
		}
		starts[lo/64] &^= 1 << (lo % 64)
		delete(leaves, lo)
		for k, ch := range children {
			setLeaf(ch[0], ch[1], nodes+k)
		}
		split(r, parent.node, children)
		nodes += len(children)
	}
}

// dag rebuilds the piece nodes; the root is the first.
func (l *Lineage) dag() []PieceNode {
	nodes := []PieceNode{{ID: l.id(1), Detail: l.detail, Hi: l.n}}
	type crack struct{ parent, first, n int }
	var cracks []crack
	l.replay(func(r *crackRec, parent int, children [][2]int) {
		op, detail := l.describe(r)
		cracks = append(cracks, crack{parent, len(nodes), len(children)})
		for _, ch := range children {
			nodes = append(nodes, PieceNode{ID: l.id(len(nodes) + 1), Op: op, Detail: detail, Lo: ch[0], Hi: ch[1]})
		}
	})
	// Link only once nodes has stopped growing, so pointers stay valid.
	ptrs := make([]*PieceNode, len(nodes))
	for i := range nodes {
		ptrs[i] = &nodes[i]
	}
	for _, c := range cracks {
		kids := ptrs[c.first : c.first+c.n : c.first+c.n]
		nodes[c.parent].Children = kids
		for _, k := range kids {
			k.Parent = &nodes[c.parent]
		}
	}
	return nodes
}

func (l *Lineage) id(seq int) string {
	return l.table + "[" + strconv.Itoa(seq) + "]"
}

// describe names the cracker and formats the detail of a record.
func (l *Lineage) describe(r *crackRec) (op, detail string) {
	switch r.kind {
	case crackCut:
		return "Ξ", fmt.Sprintf("%s %s %d", l.table, cutOpString(r.incl), r.v1)
	case crackRange:
		return "Ξ", fmt.Sprintf("%s ∈ cut(%d,%d)", l.table, r.v1, r.v2)
	case crackJoin:
		return "^", "⋉ " + l.joined[r.v1]
	case crackGroup:
		return "Ω", "group by " + l.table
	default:
		return "Ξ", "restored"
	}
}

// Node looks up a piece by ID.
func (l *Lineage) Node(id string) (*PieceNode, bool) {
	nodes := l.dag()
	for i := range nodes {
		if nodes[i].ID == id {
			return &nodes[i], true
		}
	}
	return nil, false
}

// Leaves returns the current pieces (nodes without children), sorted by
// physical position. Their position ranges tile the root — the
// loss-less property.
func (l *Lineage) Leaves() []*PieceNode {
	var out []*PieceNode
	var walk func(n *PieceNode)
	walk = func(n *PieceNode) {
		if len(n.Children) == 0 {
			out = append(out, n)
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(&l.dag()[0])
	return out
}

// Size returns the total number of registered pieces.
func (l *Lineage) Size() int { return len(l.dag()) }

// Render draws the lineage as an indented tree, the textual analogue of
// the paper's Figure 5 / Figure 6 graphs.
func (l *Lineage) Render() string {
	var b strings.Builder
	var walk func(n *PieceNode, depth int)
	walk = func(n *PieceNode, depth int) {
		b.WriteString(strings.Repeat("  ", depth))
		if n.Op != "" {
			fmt.Fprintf(&b, "%s %s(%s) [%d,%d)\n", n.ID, n.Op, n.Detail, n.Lo, n.Hi)
		} else {
			fmt.Fprintf(&b, "%s [%d,%d)\n", n.ID, n.Lo, n.Hi)
		}
		for _, c := range n.Children {
			walk(c, depth+1)
		}
	}
	walk(&l.dag()[0], 0)
	return b.String()
}
