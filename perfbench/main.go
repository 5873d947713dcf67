// Command perfbench is crackdb's end-to-end benchmark. It starts a
// server the way cmd/cracksrv does, in process on loopback, drives one
// workload over at most two connections in closed loops, checks every
// answer and prints the end-to-end metrics. With -trace 1 it instead
// replays the workload's statements in a fixed order, over the wire and
// then in process, times the calls into each layer and prints the
// per-layer metrics together with the tracing overhead.
//
// Run it from the repository root through perfbench/run.sh, which builds
// it from the checkout:
//
//	bash perfbench/run.sh --workload converged-read --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

func main() {
	var (
		name    = flag.String("workload", "", "converged-read, crack-cold or ingest-durable")
		seed    = flag.Int64("seed", 1, "workload seed: data, statements and their order")
		seconds = flag.Int("seconds", 20, "length of the timed phase, split into rounds")
		trace   = flag.Int("trace", 0, "1: traced run printing the per-layer metrics")
		dir     = flag.String("dir", ".bench_build/perfbench-run", "working directory for data dirs and span dumps")
	)
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace == 1, *dir); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func newBench(name string, seed int64) (*bench, error) {
	switch name {
	case convergedRead:
		return newConvergedRead(seed), nil
	case crackCold:
		return newCrackCold(seed)
	case ingestDurable:
		return newIngestDurable(seed), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// metric is one entry of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(name string, seed int64, seconds int, traced bool, dir string) error {
	if seconds < 1 {
		return fmt.Errorf("-seconds must be at least 1")
	}
	b, err := newBench(name, seed)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	work, err := os.MkdirTemp(dir, name+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)
	fmt.Printf("perfbench %s seed=%d seconds=%d trace=%v\n", name, seed, seconds, traced)

	plain, _, err := timed(b, seconds, filepath.Join(work, "plain"), cracksrvSample, false)
	if err != nil {
		return err
	}
	figs := plain.figures(name)
	fmt.Println("end-to-end (untraced; * = gated in BENCHMARK.json):")
	printE2E(figs)
	line := resultLine{Attempted: plain.attempted, Failed: plain.failed, Metrics: map[string]metric{}}
	wrong := plain.nWrong
	report := []*result{plain}

	if !traced {
		for _, m := range e2eMetrics {
			if m.Gated {
				line.Metrics[m.Name] = metric{figs[m.Name].value, m.Unit}
			}
		}
	} else {
		// The traced rounds: the same closed loops with a span around
		// every Do and DoBatch and every converged lookup timed.
		tr, tracers, err := timed(b, seconds, filepath.Join(work, "traced"), 1, true)
		if err != nil {
			return err
		}
		tfigs := tr.figures(name)
		fmt.Println("end-to-end (traced), tracing overhead = traced - untraced:")
		for _, m := range e2eMetrics {
			v, ok := tfigs[m.Name]
			if !ok {
				line.Metrics[overheadPrefix+m.Name] = metric{0, m.Unit}
				continue
			}
			d := v.value - figs[m.Name].value
			fmt.Printf("  %-22s %14.4f %-13s overhead %+.4f (%+.1f%%)\n", m.Name, v.value, m.Unit, d,
				100*d/nonZero(figs[m.Name].value))
			line.Metrics[overheadPrefix+m.Name] = metric{d, m.Unit}
		}
		lr, err := replay(b, filepath.Join(work, "replay"))
		if err != nil {
			return err
		}
		fmt.Printf("per-layer (fixed-order replay of %d actions over one connection, then in process):\n", len(lr.ops))
		lfigs := layerFigures(lr)
		for _, m := range layerMetrics {
			v := lfigs[m.Name]
			fmt.Printf("  %-32s %14.4f %-6s %-34s -> %s\n", m.Name, v.value, m.Unit, "("+v.note+")", m.Moves)
			line.Metrics[m.Name] = metric{v.value, m.Unit}
		}
		if len(lr.dirAfterSave) > 0 {
			fmt.Printf("  data-dir bytes after each /save: %v\n", lr.dirAfterSave)
			fmt.Printf("  boot after the replay: %+v\n", lr.boot)
		}
		spans := filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.jsonl", name, seed))
		if err := writeSpans(spans, append(tracers, lr.wire, lr.inproc)...); err != nil {
			return err
		}
		fmt.Println("  spans written to", spans)
		line.Attempted += tr.attempted + lr.r.attempted
		line.Failed += tr.failed + lr.r.failed
		wrong += tr.nWrong + lr.r.nWrong
		report = append(report, tr, lr.r)
	}

	line.Correct = wrong == 0
	for _, r := range report {
		for _, w := range r.wrong {
			fmt.Println("WRONG:", w)
		}
	}
	out, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	if !line.Correct {
		return fmt.Errorf("%d wrong answers", wrong)
	}
	return nil
}

func nonZero(v float64) float64 {
	if v == 0 {
		return 1
	}
	return v
}

// printE2E prints the end-to-end metrics the workload measured; a star
// marks the gated ones.
func printE2E(figs map[string]figure) {
	for _, m := range e2eMetrics {
		v, ok := figs[m.Name]
		if !ok {
			continue
		}
		mark := " "
		if m.Gated {
			mark = "*"
		}
		fmt.Printf(" %s%-22s %14.4f %-13s (%s)\n", mark, m.Name, v.value, m.Unit, v.note)
	}
}
