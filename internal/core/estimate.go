package core

import "crackdb/internal/expr"

// Selectivity estimation from the cracker index alone — the §3.3
// observation that after cracking "the pieces of interest for query
// evaluation are all available with precise statistics", so the
// optimizer can cost plans without touching data.

// Estimate bounds the number of qualifying tuples for a range using only
// piece boundaries: pieces whose value interval lies inside the range
// count fully (Min), pieces merely intersecting it add their size to the
// upper bound (Max). The true count always satisfies Min <= n <= Max,
// and the gap narrows as the column cracks.
type Estimate struct {
	Min int
	Max int
}

// EstimateRange bounds the answer size of a range query without reading
// or moving any data. O(p) in the number of pieces.
func (c *Column) EstimateRange(r expr.Range) Estimate {
	c.mu.RLock()
	defer c.mu.RUnlock()

	n := len(c.vals) + len(c.pending) - len(c.deleted)
	if n <= 0 || r.Empty() {
		return Estimate{}
	}
	// Pending updates blur the picture: widen by the pending counts.
	blur := len(c.pending) + len(c.deleted)

	cuts := c.idx.Cuts()
	if len(cuts) == 0 {
		return Estimate{Min: 0, Max: n}
	}

	est := Estimate{}
	// Piece i spans positions [pos_i, pos_{i+1}) with values v bounded by
	// the enclosing cuts: left cut (val,incl) ⇒ v >= val (v > val when
	// incl); right cut ⇒ v < val (v <= val when incl). The first piece
	// has no lower value bound, the last none above.
	for i := 0; i <= len(cuts); i++ {
		lo, hi := 0, len(c.vals)
		pieceRange := expr.FullRange(r.Col)
		if i > 0 {
			left := cuts[i-1]
			lo = left.Pos
			pieceRange.Low = left.Val
			pieceRange.LowIncl = !left.Incl // incl cut: left side took = val
		}
		if i < len(cuts) {
			right := cuts[i]
			hi = right.Pos
			pieceRange.High = right.Val
			pieceRange.HighIncl = right.Incl
		}
		size := hi - lo
		if size <= 0 {
			continue
		}
		switch {
		case r.Contains(pieceRange):
			est.Min += size
			est.Max += size
		case !r.Intersect(pieceRange).Empty():
			est.Max += size
		}
	}
	est.Min -= blur
	if est.Min < 0 {
		est.Min = 0
	}
	est.Max += blur
	if est.Max > n {
		est.Max = n
	}
	return est
}

// EstimateTerm bounds a conjunctive term by the tightest single-column
// estimate among its crack advice.
func (ct *CrackedTable) EstimateTerm(term expr.Term) Estimate {
	advice := expr.CrackAdvice(term)
	best := Estimate{Min: 0, Max: ct.baseLen()}
	for col, r := range advice {
		ct.mu.RLock()
		c, tracked := ct.cols[col]
		ct.mu.RUnlock()
		if !tracked {
			continue // never cracked: no statistics yet
		}
		e := c.EstimateRange(r)
		if e.Max < best.Max {
			best = e
		}
	}
	return best
}
