package core

import (
	"math"
	"sort"

	"crackdb/internal/bat"
	"crackdb/internal/expr"
)

// Conjunction execution: the one planner and executor behind the
// store's SelectWhere, CountWhere and Delete. The planner picks the
// driving column from cracker-index statistics and cracks only that one
// (paper §3.3: piece statistics cost plans for free). The Ξ cracker
// answers the column's range as one contiguous window (§3.1), so
// whatever the window already implies is never re-checked. The rest of
// the conjunction — ranges on other columns and <> predicates — is the
// residual, pushed down onto the window's OIDs and evaluated one column
// at a time over the base BATs.

// filterPred compacts oids in place to those whose value in vals (the
// column's base vector, indexed by OID) satisfies p.
func filterPred(oids []bat.OID, vals []int64, p expr.Pred) []bat.OID {
	k := 0
	for _, o := range oids {
		if p.Match(vals[o]) {
			oids[k] = o
			k++
		}
	}
	return oids[:k]
}

// termPlan is a conjunctive term resolved against a table.
type termPlan struct {
	col   *Column    // driving column; nil when the term has no crackable range
	rng   expr.Range // the range the driving column answers
	resid expr.Term  // what the driving window does not imply
}

// planTerm chooses the driving column: the advised column with the
// smallest estimated answer. Columns without statistics are estimated
// at full size, so a cracked column is preferred over a virgin one —
// unless the planner has nothing better, in which case the first
// advised column is cracked (and gains statistics for next time). The
// driving column's range predicates drop out of the residual; every
// other predicate, <> on the driving column included, stays in it.
func (ct *CrackedTable) planTerm(term expr.Term) (termPlan, error) {
	var p termPlan
	advice := expr.CrackAdvice(term)
	if len(advice) > 0 {
		// Sorted column order breaks estimate ties deterministically.
		cols := make([]string, 0, len(advice))
		for col := range advice {
			cols = append(cols, col)
		}
		sort.Strings(cols)
		bestCol, bestEst := "", Estimate{Max: math.MaxInt}
		for _, col := range cols {
			ct.mu.RLock()
			c, tracked := ct.cols[col]
			ct.mu.RUnlock()
			est := Estimate{Min: 0, Max: ct.baseLen()}
			if tracked {
				est = c.EstimateRange(advice[col])
			}
			if est.Max < bestEst.Max || bestCol == "" {
				bestCol, bestEst = col, est
			}
		}
		c, err := ct.ColumnFor(bestCol)
		if err != nil {
			return p, err
		}
		p.col, p.rng = c, advice[bestCol]
	}
	for _, pr := range term {
		if pr.Col != p.rng.Col || pr.Op == expr.Ne {
			p.resid = append(p.resid, pr)
		}
	}
	return p, nil
}

// SelectTermPlanned answers a conjunctive term with the OIDs of its
// qualifying tuples, in the driving column's physical order, and
// returns the driving column (nil when the term has no crackable
// range and the base was scanned).
func (ct *CrackedTable) SelectTermPlanned(term expr.Term) ([]bat.OID, *Column, error) {
	p, err := ct.planTerm(term)
	if err != nil {
		return nil, nil, err
	}
	oids, err := ct.execTerm(p)
	if err != nil {
		return nil, nil, err
	}
	return oids, p.col, nil
}

// CountTerm answers a conjunctive term's qualifying-tuple count. With
// no residual the crack window is the answer (Column.Count): nothing is
// copied. A term with no predicates at all is the live cardinality.
func (ct *CrackedTable) CountTerm(term expr.Term) (int, error) {
	p, err := ct.planTerm(term)
	if err != nil {
		return 0, err
	}
	if len(p.resid) == 0 {
		if p.col == nil {
			return ct.LiveLen(), nil
		}
		n := p.col.Count(p.rng.Low, p.rng.High, p.rng.LowIncl, p.rng.HighIncl)
		if ct.selectObs != nil {
			ct.selectObs(p.rng)
		}
		return n, nil
	}
	oids, err := ct.execTerm(p)
	return len(oids), err
}

// execTerm collects the candidates — the driving window's OIDs, or every
// live OID when nothing drives — and applies the residual to them in
// place, one predicate (one base column) at a time. Tombstones are only
// probed on the base scan: a column consolidates its deletes before it
// answers, so a crack window holds live tuples only.
func (ct *CrackedTable) execTerm(p termPlan) ([]bat.OID, error) {
	var oids []bat.OID
	if p.col != nil {
		oids = p.col.SelectOIDs(p.rng)
		if ct.selectObs != nil {
			// The driving column absorbed a single-range selection,
			// exactly like Select — the sideways and tuner observers must
			// see it, or statements arriving through the planner (every
			// scalar SQL statement) are invisible to them.
			ct.selectObs(p.rng)
		}
	}
	ct.baseMu.RLock()
	defer ct.baseMu.RUnlock()
	if p.col == nil {
		oids = ct.liveOIDsLocked()
	}
	for _, pr := range p.resid {
		if len(oids) == 0 {
			break
		}
		b, err := ct.base.Column(pr.Col)
		if err != nil {
			return nil, err
		}
		oids = filterPred(oids, b.Ints(), pr)
	}
	return oids, nil
}

// liveOIDsLocked lists every non-tombstoned OID in base order. The
// caller holds baseMu.
func (ct *CrackedTable) liveOIDsLocked() []bat.OID {
	n := ct.base.Len()
	out := make([]bat.OID, 0, n-len(ct.tomb))
	for i := 0; i < n; i++ {
		if len(ct.tomb) != 0 {
			if _, dead := ct.tomb[bat.OID(i)]; dead {
				continue
			}
		}
		out = append(out, bat.OID(i))
	}
	return out
}
