package main

import (
	"bufio"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// tailSamples is how many samples must lie beyond a percentile before it
// is reported: p99 needs 1000 samples, p50 needs 20.
const tailSamples = 10

// qualifying returns the highest whole percentile, at most want, that
// has tailSamples samples beyond it among n, or 0 when none does.
func qualifying(want float64, n int) float64 {
	if n <= tailSamples {
		return 0
	}
	top := math.Floor(100 * (1 - float64(tailSamples)/float64(n)))
	return math.Min(want, top)
}

// quantile is one reported percentile: the value, the percentile it
// actually is (lower than asked when the sample is too small) and the
// sample count.
type quantile struct {
	Value float64
	P     float64
	N     int
}

func (q quantile) String() string {
	if q.P == 0 {
		return fmt.Sprintf("no percentile qualifies, n=%d", q.N)
	}
	return fmt.Sprintf("p%g of n=%d", q.P, q.N)
}

// percentile returns the nearest-rank percentile of xs (which it sorts),
// lowered to the highest percentile that qualifies.
func percentile(xs []float64, want float64) quantile {
	p := qualifying(want, len(xs))
	if p == 0 {
		return quantile{N: len(xs)}
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(p / 100 * float64(len(xs))))
	return quantile{Value: xs[rank-1], P: p, N: len(xs)}
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// interval is a closed-open time interval in nanoseconds.
type interval struct{ start, end int64 }

// selfTime is the parent's duration minus the part of it that the
// children cover. Children may overlap each other (a fan-out) and may
// stick out of the parent; each instant is subtracted at most once.
func selfTime(parent interval, children []interval) int64 {
	clipped := make([]interval, 0, len(children))
	for _, c := range children {
		s, e := max(c.start, parent.start), min(c.end, parent.end)
		if s < e {
			clipped = append(clipped, interval{s, e})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start < clipped[j].start })
	var covered int64
	cur := interval{start: -1, end: -1}
	for _, c := range clipped {
		if c.start > cur.end {
			covered += cur.end - cur.start
			cur = c
			continue
		}
		cur.end = max(cur.end, c.end)
	}
	covered += cur.end - cur.start
	return parent.end - parent.start - covered
}

// promHist is one histogram family scraped from Prometheus text, with
// every labelled series summed: cumulative counts per upper bound.
type promHist struct {
	bounds []float64 // ascending, last is +Inf
	cum    []float64
	sum    float64
	count  float64
}

// series is one parsed exposition line.
type series struct {
	name   string
	labels map[string]string
	value  float64
}

// parseProm parses Prometheus text exposition lines (comments skipped).
func parseProm(text string) ([]series, error) {
	var out []series
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			return nil, fmt.Errorf("prometheus line without value: %q", line)
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("prometheus value in %q: %w", line, err)
		}
		s := series{value: v, labels: map[string]string{}}
		head := line[:sp]
		if i := strings.IndexByte(head, '{'); i >= 0 {
			s.name = head[:i]
			body := strings.TrimSuffix(head[i+1:], "}")
			for body != "" {
				eq := strings.Index(body, `="`)
				if eq < 0 {
					return nil, fmt.Errorf("prometheus labels in %q", line)
				}
				key := body[:eq]
				rest := body[eq+2:]
				end := strings.IndexByte(rest, '"')
				for end > 0 && rest[end-1] == '\\' {
					next := strings.IndexByte(rest[end+1:], '"')
					if next < 0 {
						end = -1
						break
					}
					end += next + 1
				}
				if end < 0 {
					return nil, fmt.Errorf("prometheus labels in %q", line)
				}
				s.labels[key] = rest[:end]
				body = strings.TrimPrefix(rest[end+1:], ",")
			}
		} else {
			s.name = head
		}
		out = append(out, s)
	}
	return out, sc.Err()
}

// key identifies the series: its name and every label.
func (s series) key() string { return labelsKey(s.name, s.labels, "") }

// labelsKey renders a name and its labels, leaving out the label skip.
func labelsKey(name string, labels map[string]string, skip string) string {
	keys := make([]string, 0, len(labels))
	for k := range labels {
		if k != skip {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString(name)
	for _, k := range keys {
		b.WriteByte(',')
		b.WriteString(k)
		b.WriteByte('=')
		b.WriteString(labels[k])
	}
	return b.String()
}

// matches reports whether the series carries every wanted label.
func (s series) matches(want map[string]string) bool {
	for k, v := range want {
		if s.labels[k] != v {
			return false
		}
	}
	return true
}

// scalarSum adds every series of the family that carries the wanted
// labels.
func scalarSum(all []series, name string, want map[string]string) float64 {
	var total float64
	for _, s := range all {
		if s.name == name && s.matches(want) {
			total += s.value
		}
	}
	return total
}

// histogram sums the family's series that carry the wanted labels. A
// series exposes buckets only up to its last populated one, so series
// may list different bounds.
func histogram(all []series, name string, want map[string]string) promHist {
	groups := map[string]map[float64]float64{}
	bounds := map[float64]bool{}
	var h promHist
	for _, s := range all {
		if !s.matches(want) {
			continue
		}
		switch s.name {
		case name + "_bucket":
			le, err := strconv.ParseFloat(s.labels["le"], 64)
			if err != nil {
				continue
			}
			key := labelsKey("", s.labels, "le")
			if groups[key] == nil {
				groups[key] = map[float64]float64{}
			}
			groups[key][le] = s.value
			bounds[le] = true
		case name + "_sum":
			h.sum += s.value
		case name + "_count":
			h.count += s.value
		}
	}
	for b := range bounds {
		h.bounds = append(h.bounds, b)
	}
	sort.Float64s(h.bounds)
	h.cum = make([]float64, len(h.bounds))
	for _, g := range groups {
		// Cumulative counts are monotone, so an unlisted bound takes the
		// value of the largest listed bound below it.
		last := 0.0
		for i, b := range h.bounds {
			if c, ok := g[b]; ok {
				last = c
			}
			h.cum[i] += last
		}
	}
	return h
}

// quantile is the bucket quantile in the manner of Prometheus's
// histogram_quantile: find the bucket holding the rank and interpolate
// linearly inside it. With power-of-two buckets the answer is within 2×
// of the true value. The same tail rule as percentile applies.
func (h promHist) quantile(want float64) quantile {
	n := int(h.count)
	p := qualifying(want, n)
	if p == 0 || len(h.bounds) == 0 {
		return quantile{N: n}
	}
	rank := p / 100 * h.count
	lower, below := 0.0, 0.0
	for i, b := range h.bounds {
		if h.cum[i] >= rank {
			if math.IsInf(b, 1) {
				return quantile{Value: lower, P: p, N: n}
			}
			in := h.cum[i] - below
			v := b
			if in > 0 {
				v = lower + (b-lower)*(rank-below)/in
			}
			return quantile{Value: v, P: p, N: n}
		}
		lower, below = b, h.cum[i]
	}
	return quantile{Value: lower, P: p, N: n}
}

// mean is sum/count, 0 for an empty histogram.
func (h promHist) mean() float64 {
	if h.count == 0 {
		return 0
	}
	return h.sum / h.count
}
