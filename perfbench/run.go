package main

import (
	"fmt"
	"net"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"crackdb/internal/server"
	"crackdb/internal/shard"
)

// cracksrvSample is cracksrv's default -tracesample: one converged
// lookup in 256 is timed.
const cracksrvSample = 256

// result is what a run's timed rounds measured.
type result struct {
	setups []float64 // seconds
	rounds []round
	heap   float64 // bytes

	attempted, failed int64
	nWrong            int64
	wrong             []string // the first few wrong answers

	// ingest-durable only, from the last round.
	diskBytes, liveRows int64
	bootS               float64
	boot                shard.BootInfo
}

// round is one timed phase on a freshly built store.
type round struct {
	elapsed time.Duration
	events  []event // every fully answered action
}

// event is one answered action: how long it took and how many
// statements it carried.
type event struct {
	d    time.Duration
	kind opKind
	n    int
}

func (r *result) addWrong(format string, args ...any) {
	r.nWrong++
	if len(r.wrong) < 5 {
		r.wrong = append(r.wrong, fmt.Sprintf(format, args...))
	}
}

// merge adds a connection's counts and events to the current round.
func (r *result) merge(o *result, cur *round) {
	for _, rd := range o.rounds {
		cur.events = append(cur.events, rd.events...)
	}
	r.attempted += o.attempted
	r.failed += o.failed
	r.nWrong += o.nWrong
	for _, w := range o.wrong {
		if len(r.wrong) < 5 {
			r.wrong = append(r.wrong, w)
		}
	}
}

// newConnResult collects one connection's share of a round.
func newConnResult() *result { return &result{rounds: make([]round, 1)} }

func heapInUse() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc)
}

// served is a store behind a server started the way cmd/cracksrv
// starts one, listening on loopback.
type served struct {
	srv  *server.Server
	addr string
	done chan error
}

func serve(st *shard.Store, sample int) (*served, error) {
	srv := server.New(st, nil)
	srv.EnableObservability(0, sample)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &served{srv: srv, addr: ln.Addr().String(), done: make(chan error, 1)}
	go func() { s.done <- srv.Serve(ln) }()
	return s, nil
}

func (s *served) stop() error {
	s.srv.Shutdown(5 * time.Second)
	return <-s.done
}

// timed runs the workload's set-ups and timed rounds. The phase of
// --seconds is split into rounds of about b.roundSeconds. Every set-up
// is timed; the last of them are each followed by a round: serve the
// store, run every script on its own connection in a closed loop until
// the round's share of the phase is over, stop, then let the workload
// check and measure what the round left behind. With traced set, every
// Do and DoBatch call is recorded as a span, in one tracer per round and
// connection.
func timed(b *bench, seconds int, dir string, sample int, traced bool) (*result, []*tracer, error) {
	r := &result{}
	var tracers []*tracer
	base := heapInUse()
	data := filepath.Join(dir, "data")
	rounds := max(1, (seconds+b.roundSeconds/2)/b.roundSeconds)
	setups := max(rounds, b.setups)
	length := time.Duration(seconds) * time.Second / time.Duration(rounds)
	for i := 0; i < setups; i++ {
		if b.reset != nil {
			b.reset()
		}
		t0 := time.Now()
		st, err := b.setup(data)
		if err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		r.setups = append(r.setups, time.Since(t0).Seconds())
		if i < setups-rounds {
			if err := st.CloseWAL(); err != nil {
				return nil, nil, err
			}
			runtime.GC()
			continue
		}
		var trs []*tracer
		if traced {
			for c := range b.scripts {
				trs = append(trs, newTracer(fmt.Sprintf("timed-round%d-conn%d", len(r.rounds), c)))
			}
			tracers = append(tracers, trs...)
		}
		if err := r.round(b, st, sample, length, trs); err != nil {
			return nil, nil, err
		}
		// The heap is measured after the last round, with its store live.
		if i == setups-1 {
			r.heap = heapInUse() - base
		}
		if b.finish != nil {
			if err := b.finish(st, data, r); err != nil {
				return nil, nil, err
			}
		} else if err := st.CloseWAL(); err != nil {
			return nil, nil, err
		}
		runtime.GC()
	}
	return r, tracers, nil
}

// round serves st and drives every script against it.
func (r *result) round(b *bench, st *shard.Store, sample int, length time.Duration, tracers []*tracer) error {
	s, err := serve(st, sample)
	if err != nil {
		return err
	}
	clients := make([]*server.Client, len(b.scripts))
	for i := range clients {
		if clients[i], err = server.DialTimeout(s.addr, 5*time.Second); err != nil {
			return err
		}
	}
	parts := make([]*result, len(b.scripts))
	errs := make([]error, len(b.scripts))
	start := time.Now()
	deadline := start.Add(length)
	done := make(chan struct{}, len(b.scripts))
	for c := range b.scripts {
		parts[c] = newConnResult()
		var tr *tracer
		if tracers != nil {
			tr = tracers[c]
		}
		go func(c int, tr *tracer) {
			defer func() { done <- struct{}{} }()
			for i := 0; time.Now().Before(deadline); i++ {
				if errs[c] = do(clients[c], b.scripts[c](i), i+1, parts[c], tr, b.onAck); errs[c] != nil {
					return
				}
			}
		}(c, tr)
	}
	for range b.scripts {
		<-done
	}
	cur := round{elapsed: time.Since(start)}
	for c, p := range parts {
		r.merge(p, &cur)
		if errs[c] != nil {
			r.addWrong("connection %d: %v", c, errs[c])
		}
		clients[c].Close()
	}
	r.rounds = append(r.rounds, cur)
	return s.stop()
}

// do sends one action, times it and checks the answer. A transport
// error is returned: the connection is unusable after it. Statements
// the server refuses count as failed; wrong answers are recorded.
func do(c *server.Client, o op, stmtID int, r *result, tr *tracer, onAck func(op)) error {
	n := int64(1)
	if o.kind == opBatch {
		n = int64(len(o.stmts))
	}
	r.attempted += n
	var resps []*server.Response
	var err error
	var id int
	if tr != nil {
		id = tr.start("server."+o.kind.String(), stmtID, 0)
	}
	t0 := time.Now()
	if o.kind == opBatch {
		resps, err = c.DoBatch(o.stmts)
	} else {
		var resp *server.Response
		resp, err = c.Do(o.stmt)
		resps = []*server.Response{resp}
	}
	d := time.Since(t0)
	if tr != nil {
		tr.end(id, o.rows)
	}
	if err != nil {
		r.failed += n
		return err
	}
	ok := true
	for i, resp := range resps {
		if resp.Err != "" {
			r.failed++
			ok = false
			continue
		}
		if err := checkResponse(o, i, resp); err != nil {
			r.addWrong("%s: %v", statementOf(o, i), err)
			ok = false
		}
	}
	if ok {
		r.rounds[len(r.rounds)-1].events = append(r.rounds[len(r.rounds)-1].events, event{d, o.kind, int(n)})
		if onAck != nil && (o.kind == opInsert || o.kind == opDelete) {
			onAck(o)
		}
	}
	return nil
}

func statementOf(o op, i int) string {
	if o.kind == opBatch {
		return o.stmts[i]
	}
	return o.stmt
}

// checkResponse verifies one statement's answer.
func checkResponse(o op, i int, resp *server.Response) error {
	switch o.kind {
	case opCount, opBatch:
		want := o.want
		if o.kind == opBatch {
			want = o.wants[i]
		}
		got, err := resp.Int64(0, 0)
		if err != nil {
			return err
		}
		if got != want {
			return fmt.Errorf("count %d, want %d", got, want)
		}
	case opSelect:
		return o.check(resp)
	case opInsert:
		if resp.Message != "inserted 1 rows into "+tableName {
			return fmt.Errorf("insert answered %q", resp.Message)
		}
	case opDelete:
		if resp.Message != "deleted 1 rows from "+tableName {
			return fmt.Errorf("delete answered %q", resp.Message)
		}
	case opSave:
		if !strings.HasPrefix(resp.Message, "checkpoint complete") {
			return fmt.Errorf("/save answered %q", resp.Message)
		}
	}
	return nil
}

// figure is one metric's value with how it was taken.
type figure struct {
	value float64
	note  string
}

// latencies returns the round trips of one kind of action, in unit.
func latencies(events []event, k opKind, unit time.Duration) []float64 {
	var out []float64
	for _, e := range events {
		if e.kind == k {
			out = append(out, float64(e.d)/float64(unit))
		}
	}
	return out
}

// figures derives every end-to-end metric that applies to the workload.
// A percentile is the median over rounds of each round's own, so a round
// that ran while the machine was busy elsewhere moves it little; when a
// round has too few samples to report that percentile, it pools every
// round's samples instead. qps is the median over rounds too.
func (r *result) figures(workload string) map[string]figure {
	out := map[string]figure{}
	var all []event
	for _, rd := range r.rounds {
		all = append(all, rd.events...)
	}
	pct := func(name string, k opKind, p float64, unit time.Duration) {
		xs := latencies(all, k, unit)
		if len(xs) == 0 {
			return
		}
		pooled := percentile(xs, p)
		out[name] = figure{pooled.Value, pooled.String()}
		var per []float64
		for _, rd := range r.rounds {
			q := percentile(latencies(rd.events, k, unit), p)
			if q.P != p {
				return // a round too small for the percentile: keep the pooled one
			}
			per = append(per, q.Value)
		}
		out[name] = figure{median(per), fmt.Sprintf("median over %d rounds of p%g; %d samples", len(per), p, pooled.N)}
	}
	out["setup_s"] = figure{median(r.setups), fmt.Sprintf("median of %d set-ups", len(r.setups))}
	pct("count_p50_us", opCount, 50, time.Microsecond)
	pct("count_p99_us", opCount, 99, time.Microsecond)
	pct("select_p50_us", opSelect, 50, time.Microsecond)
	pct("select_p99_us", opSelect, 99, time.Microsecond)
	pct("batch_p50_us", opBatch, 50, time.Microsecond)
	pct("batch_p99_us", opBatch, 99, time.Microsecond)
	pct("insert_p50_us", opInsert, 50, time.Microsecond)
	pct("insert_p99_us", opInsert, 99, time.Microsecond)
	pct("checkpoint_p50_ms", opSave, 50, time.Millisecond)
	var rates []float64
	total := 0
	for _, rd := range r.rounds {
		n := 0
		for _, e := range rd.events {
			n += e.n
		}
		total += n
		rates = append(rates, float64(n)/rd.elapsed.Seconds())
	}
	out["qps"] = figure{median(rates), fmt.Sprintf("median over %d rounds; %d statements", len(rates), total)}
	out["heap_mb"] = figure{r.heap / 1e6, "after a GC at the end of the last round, net of the harness's inputs"}
	if workload == ingestDurable {
		out["boot_s"] = figure{r.bootS, fmt.Sprintf("last round, median of 3 boots; the last replayed %d WAL records over %d chain deltas",
			r.boot.Replayed, r.boot.ChainDeltas)}
		if r.liveRows > 0 {
			out["disk_bytes_per_row"] = figure{float64(r.diskBytes) / float64(r.liveRows),
				fmt.Sprintf("last round, %d bytes, %d live rows", r.diskBytes, r.liveRows)}
		}
	}
	out["error_rate"] = figure{float64(r.failed) / float64(max(r.attempted, 1)),
		fmt.Sprintf("%d failed of %d attempted", r.failed, r.attempted)}
	return out
}
