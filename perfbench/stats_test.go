package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"testing"

	"crackdb/internal/obs"
)

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // unsorted on purpose
		}
		return xs
	}
	cases := []struct {
		n         int
		want      float64
		p, value  float64
		qualifies bool
	}{
		{n: 1000, want: 99, p: 99, value: 990, qualifies: true},
		{n: 999, want: 99, p: 98, value: 980, qualifies: true},
		{n: 523, want: 99, p: 98, value: 513, qualifies: true},
		{n: 20, want: 50, p: 50, value: 10, qualifies: true},
		{n: 15, want: 50, p: 33, value: 5, qualifies: true},
		{n: 10, want: 50, qualifies: false},
		{n: 0, want: 50, qualifies: false},
	}
	for _, c := range cases {
		q := percentile(seq(c.n), c.want)
		if q.N != c.n {
			t.Errorf("n=%d: sample count %d", c.n, q.N)
		}
		if !c.qualifies {
			if q.P != 0 {
				t.Errorf("n=%d: p%g reported, want none", c.n, q.P)
			}
			continue
		}
		if q.P != c.p || q.Value != c.value {
			t.Errorf("n=%d p%g: got p%g = %g, want p%g = %g", c.n, c.want, q.P, q.Value, c.p, c.value)
		}
		// The rule itself: at least ten samples lie beyond the value.
		beyond := 0
		for _, x := range seq(c.n) {
			if x > q.Value {
				beyond++
			}
		}
		if beyond < tailSamples {
			t.Errorf("n=%d: only %d samples beyond p%g", c.n, beyond, q.P)
		}
	}
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	cases := []struct {
		name     string
		parent   interval
		children []interval
		want     int64
	}{
		{"none", interval{0, 100}, nil, 100},
		{"disjoint", interval{0, 100}, []interval{{10, 20}, {50, 70}}, 70},
		{"overlapping", interval{0, 100}, []interval{{10, 40}, {30, 60}, {35, 45}}, 50},
		{"fan-out", interval{0, 100}, []interval{{10, 90}, {10, 90}, {20, 80}}, 20},
		{"sticking out", interval{0, 100}, []interval{{-20, 10}, {90, 130}}, 80},
		{"outside", interval{0, 100}, []interval{{100, 150}, {-50, 0}}, 100},
		{"covering", interval{0, 100}, []interval{{-1, 101}}, 0},
		{"unsorted", interval{0, 100}, []interval{{70, 80}, {5, 15}, {75, 95}}, 65},
	}
	for _, c := range cases {
		if got := selfTime(c.parent, c.children); got != c.want {
			t.Errorf("%s: self time %d, want %d", c.name, got, c.want)
		}
	}
}

// TestBucketQuantileFromScrape exposes real obs histograms as the server's
// /metrics does, then extracts quantiles from the text.
func TestBucketQuantileFromScrape(t *testing.T) {
	reg0, reg1 := obs.NewRegistry(), obs.NewRegistry()
	h0 := reg0.Histogram("lat_ns", "latency", obs.L("path", "crack"))
	h1 := reg1.Histogram("lat_ns", "latency", obs.L("path", "crack"))
	other := reg1.Histogram("lat_ns", "latency", obs.L("path", "converged"))
	for i := 0; i < 900; i++ {
		h0.Observe(3) // bucket (1, 3]
	}
	for i := 0; i < 100; i++ {
		h1.Observe(100) // bucket (63, 127]
	}
	for i := 0; i < 50; i++ {
		other.Observe(1 << 20)
	}
	// Two shards' registries merged with shard labels, as shard.Store.Gather does.
	fams := obs.MergeFamilies(
		obs.WithLabel(reg0.Gather(), obs.L("shard", "0")),
		obs.WithLabel(reg1.Gather(), obs.L("shard", "1")))
	var buf bytes.Buffer
	if err := obs.WriteText(&buf, fams); err != nil {
		t.Fatal(err)
	}
	all, err := parseProm(buf.String())
	if err != nil {
		t.Fatal(err)
	}
	h := histogram(all, "lat_ns", map[string]string{"path": "crack"})
	if h.count != 1000 || h.sum != 900*3+100*100 {
		t.Fatalf("count %g sum %g, want 1000 and %d", h.count, h.sum, 900*3+100*100)
	}
	// Shard 0 lists buckets only up to le=3; at le=127 it still counts.
	if got := h.cum[len(h.cum)-1]; got != 1000 {
		t.Errorf("cumulative at +Inf %g, want 1000", got)
	}
	p50 := h.quantile(50)
	if want := 1 + 2*500.0/900; p50.P != 50 || p50.N != 1000 || math.Abs(p50.Value-want) > 1e-9 {
		t.Errorf("p50 = %+v, want %g interpolated in (1, 3]", p50, want)
	}
	p99 := h.quantile(99)
	if want := 63 + 64*(990.0-900)/100; p99.P != 99 || math.Abs(p99.Value-want) > 1e-9 {
		t.Errorf("p99 = %+v, want %g interpolated in (63, 127]", p99, want)
	}
	if p99.Value < 100/2.0 || p99.Value > 100*2.0 {
		t.Errorf("p99 %g not within 2x of the observed 100", p99.Value)
	}
	// 50 samples: p99 does not qualify, p80 is the highest that does.
	conv := histogram(all, "lat_ns", map[string]string{"path": "converged"})
	if q := conv.quantile(99); q.P != 80 || q.N != 50 {
		t.Errorf("converged p99 = %+v, want p80 of 50", q)
	}
	if got := conv.mean(); got != 1<<20 {
		t.Errorf("mean %g, want %d", got, 1<<20)
	}
}

func TestParsePromLabelsAndScalars(t *testing.T) {
	text := `# HELP c help
# TYPE c counter
c{shard="0",table="t"} 5
c{shard="1",table="t"} 7
c{shard="1",table="u"} 100
g 2.5
q{v="a \"quoted\", comma"} 1
`
	all, err := parseProm(text)
	if err != nil {
		t.Fatal(err)
	}
	if got := scalarSum(all, "c", map[string]string{"table": "t"}); got != 12 {
		t.Errorf("sum over table t = %g, want 12", got)
	}
	if got := scalarSum(all, "g", nil); got != 2.5 {
		t.Errorf("g = %g, want 2.5", got)
	}
	if got := all[len(all)-1].labels["v"]; got != `a \"quoted\", comma` {
		t.Errorf("escaped label value %q", got)
	}
	if _, err := parseProm("novalue\n"); err == nil {
		t.Error("line without value parsed")
	}
}

func TestCountersSince(t *testing.T) {
	before := counters{
		metrics: []series{{name: "x_total", labels: map[string]string{"shard": "0"}, value: 10}},
		stats:   map[string]float64{"queries": 100, "pieces": 50},
		flips:   1,
	}
	after := counters{
		metrics: []series{
			{name: "x_total", labels: map[string]string{"shard": "0"}, value: 15},
			{name: "x_total", labels: map[string]string{"shard": "1"}, value: 4},
		},
		stats: map[string]float64{"queries": 130, "pieces": 70},
		flips: 3,
	}
	d := after.since(before)
	if got := scalarSum(d.metrics, "x_total", nil); got != 9 {
		t.Errorf("x_total delta %g, want 9", got)
	}
	if d.stats["queries"] != 30 || d.stats["pieces"] != 70 || d.flips != 2 {
		t.Errorf("delta %+v flips %g, want queries 30, pieces 70 (a level), flips 2", d.stats, d.flips)
	}
}

// TestBenchmarkJSONMatchesMetricTables keeps BENCHMARK.json in step with
// the workloads and metrics this program prints.
func TestBenchmarkJSONMatchesMetricTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloadNames) {
		t.Errorf("%d workloads, program runs %d", len(spec.Workloads), len(workloadNames))
	}
	for i, w := range spec.Workloads {
		if i < len(workloadNames) && w.Name != workloadNames[i] {
			t.Errorf("workload %d is %s, program calls it %s", i, w.Name, workloadNames[i])
		}
	}
	var gatedDefs []e2eDef
	for _, m := range e2eMetrics {
		if m.Gated {
			gatedDefs = append(gatedDefs, m)
		}
	}
	if len(spec.EndToEnd) != len(gatedDefs) {
		t.Fatalf("%d end_to_end metrics, program gates %d", len(spec.EndToEnd), len(gatedDefs))
	}
	for i, m := range spec.EndToEnd {
		d := gatedDefs[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("end_to_end[%d] = %s %s %s, program says %s %s %s", i, m.Name, m.Unit, m.Better, d.Name, d.Unit, d.Better)
		}
	}
	want := map[string]layerDef{}
	for _, m := range layerMetrics {
		want[m.Name] = m
	}
	for _, m := range e2eMetrics {
		want[overheadPrefix+m.Name] = layerDef{Name: overheadPrefix + m.Name, Unit: m.Unit, Better: m.Better}
	}
	if len(spec.PerLayer) != len(want) {
		t.Errorf("%d per_layer metrics, program prints %d", len(spec.PerLayer), len(want))
	}
	for _, m := range spec.PerLayer {
		d, ok := want[m.Name]
		if !ok {
			t.Errorf("per_layer %s is not printed", m.Name)
			continue
		}
		if m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per_layer %s: %s/%s, program says %s/%s", m.Name, m.Unit, m.Better, d.Unit, d.Better)
		}
	}
}
