package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"crackdb"
	"crackdb/internal/server"
	"crackdb/internal/shard"
	"crackdb/internal/sql"
)

// span is one timed call at a layer boundary. Spans of one statement
// share Stmt; Parent is the ID of the span that caused this one (0 for
// a statement's root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Stmt   int    `json:"stmt"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	N      int64  `json:"n"` // rows or count the call returned
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps one goroutine's spans in memory.
type tracer struct {
	pass  string
	epoch time.Time
	spans []span
}

func newTracer(pass string) *tracer { return &tracer{pass: pass, epoch: time.Now()} }

func (t *tracer) start(name string, stmt, parent int) int {
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Stmt: stmt, Name: name,
		Start: int64(time.Since(t.epoch))})
	return len(t.spans)
}

func (t *tracer) end(id int, n int64) {
	s := &t.spans[id-1]
	s.End, s.N = int64(time.Since(t.epoch)), n
}

// writeSpans dumps every tracer's spans as JSON lines.
func writeSpans(path string, tracers ...*tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, t := range tracers {
		for _, s := range t.spans {
			if err := enc.Encode(struct {
				Pass string `json:"pass"`
				span
			}{t.pass, s}); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// recBackend is the shard router seen through crackdb.Backend with one
// child span per method call, parented to the statement's current span.
type recBackend struct {
	st     *shard.Store
	tr     *tracer
	stmt   int
	parent int
}

func (b *recBackend) span(name string) int { return b.tr.start("shard."+name, b.stmt, b.parent) }

func (b *recBackend) CreateTable(name string, cols ...string) error {
	id := b.span("create_table")
	err := b.st.CreateTable(name, cols...)
	b.tr.end(id, 0)
	return err
}

func (b *recBackend) DropTable(name string) error {
	id := b.span("drop_table")
	err := b.st.DropTable(name)
	b.tr.end(id, 0)
	return err
}

func (b *recBackend) InsertRows(table string, rows [][]int64) error {
	id := b.span("insert_rows")
	err := b.st.InsertRows(table, rows)
	b.tr.end(id, int64(len(rows)))
	return err
}

func (b *recBackend) Delete(table string, conds ...crackdb.Cond) (int, error) {
	id := b.span("delete")
	n, err := b.st.Delete(table, conds...)
	b.tr.end(id, int64(n))
	return n, err
}

func (b *recBackend) Select(table, col string, low, high int64) (crackdb.Rows, error) {
	id := b.span("select")
	r, err := b.st.Select(table, col, low, high)
	b.tr.end(id, 0)
	return b.rows(r), err
}

func (b *recBackend) Count(table, col string, low, high int64) (int, error) {
	id := b.span("count")
	n, err := b.st.Count(table, col, low, high)
	b.tr.end(id, int64(n))
	return n, err
}

func (b *recBackend) SelectWhere(table string, conds ...crackdb.Cond) (crackdb.Rows, error) {
	id := b.span("select_where")
	r, err := b.st.SelectWhere(table, conds...)
	b.tr.end(id, 0)
	return b.rows(r), err
}

func (b *recBackend) CountWhere(table string, conds ...crackdb.Cond) (int, error) {
	id := b.span("count_where")
	n, err := b.st.CountWhere(table, conds...)
	b.tr.end(id, int64(n))
	return n, err
}

func (b *recBackend) SelectBatch(table, col string, ranges []crackdb.Range, opts ...crackdb.BatchOption) ([]crackdb.Rows, error) {
	id := b.span("select_batch")
	rs, err := b.st.SelectBatch(table, col, ranges, opts...)
	b.tr.end(id, int64(len(ranges)))
	for i := range rs {
		rs[i] = b.rows(rs[i])
	}
	return rs, err
}

func (b *recBackend) CountBatch(table, col string, ranges []crackdb.Range, opts ...crackdb.BatchOption) ([]int, error) {
	id := b.span("count_batch")
	ns, err := b.st.CountBatch(table, col, ranges, opts...)
	b.tr.end(id, int64(len(ranges)))
	return ns, err
}

func (b *recBackend) GroupBy(table, col string) ([]crackdb.GroupInfo, error) {
	id := b.span("group_by")
	gs, err := b.st.GroupBy(table, col)
	b.tr.end(id, int64(len(gs)))
	return gs, err
}

func (b *recBackend) Tables() []string { return b.st.Tables() }

func (b *recBackend) Columns(table string) ([]string, error) { return b.st.Columns(table) }

func (b *recBackend) rows(r crackdb.Rows) crackdb.Rows {
	if r == nil {
		return nil
	}
	return &recRows{inner: r, b: b, stmt: b.stmt, parent: b.parent}
}

// recRows records a span around Rows(): tuple reconstruction and the
// router's canonical merge.
type recRows struct {
	inner        crackdb.Rows
	b            *recBackend
	stmt, parent int
}

func (r *recRows) Count() int { return r.inner.Count() }

func (r *recRows) Rows(cols ...string) ([][]int64, error) {
	id := r.b.tr.start("shard.rows", r.stmt, r.parent)
	rows, err := r.inner.Rows(cols...)
	r.b.tr.end(id, int64(len(rows)))
	return rows, err
}

var _ crackdb.Backend = (*recBackend)(nil)

// layerRun is what the traced run gathers for the per-layer figures.
type layerRun struct {
	ops    []op
	wire   *tracer
	inproc *tracer
	// What the wire pass's server counted during the replay.
	counters
	// ingest-durable: bytes the WAL and the checkpoints wrote, the
	// data-dir size after each /save, and the reboot afterwards.
	walBytes, ckptBytes int64
	mutations           int64
	dirAfterSave        []int64
	boot                shard.BootInfo
	r                   *result // attempted, failed and wrong answers of both passes
}

// replay runs the workload's fixed-order statements twice on stores
// built the same way: once over one wire connection with a span around
// each Do and DoBatch, then in process with spans around sql.Parse,
// Engine.ExecStmt, every Backend call and every Rows() call.
func replay(b *bench, dir string) (*layerRun, error) {
	lr := &layerRun{
		ops: make([]op, b.replayLen), // filled as the wire pass resolves each action
		r:   newConnResult(), wire: newTracer("wire"), inproc: newTracer("inproc"),
	}
	if err := replayWire(b, filepath.Join(dir, "wire"), lr); err != nil {
		return nil, err
	}
	if err := replayInProcess(b, filepath.Join(dir, "inproc"), lr); err != nil {
		return nil, err
	}
	return lr, nil
}

func replayWire(b *bench, dir string, lr *layerRun) error {
	if b.reset != nil {
		b.reset()
	}
	st, err := b.setup(dir)
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	s, err := serve(st, 1)
	if err != nil {
		return err
	}
	c, err := server.DialTimeout(s.addr, 5*time.Second)
	if err != nil {
		return err
	}
	before, err := scrape(c)
	if err != nil {
		return err
	}
	durable := st.Durable()
	var seen map[string]fileStamp
	if durable {
		seen = listFiles(dir)
	}
	for i := 0; i < b.replayLen; i++ {
		o := b.replayOp(i)
		lr.ops[i] = o
		if o.kind == opSave {
			if err := lr.noteWAL(c); err != nil {
				return err
			}
		}
		if o.kind == opInsert || o.kind == opDelete {
			lr.mutations++
		}
		if err := do(c, o, i+1, lr.r, lr.wire, b.onAck); err != nil {
			return err
		}
		if o.kind == opSave {
			now := listFiles(dir)
			lr.ckptBytes += writtenSince(seen, now)
			seen = now
			lr.dirAfterSave = append(lr.dirAfterSave, dirBytes(dir))
		}
	}
	after, err := scrape(c)
	if err != nil {
		return err
	}
	lr.counters = after.since(before)
	if durable {
		if err := lr.noteWAL(c); err != nil {
			return err
		}
	}
	c.Close()
	if err := s.stop(); err != nil {
		return err
	}
	if err := st.CloseWAL(); err != nil {
		return err
	}
	if durable {
		st2, info, err := shard.OpenDurable(dir, st.Options())
		if err != nil {
			return fmt.Errorf("reboot after replay: %w", err)
		}
		lr.boot = info
		if err := st2.CloseWAL(); err != nil {
			return err
		}
	}
	return nil
}

// noteWAL adds the bytes of the live WAL segment, which the coming
// checkpoint rotates away.
func (lr *layerRun) noteWAL(c *server.Client) error {
	resp, err := c.Exec("/wal")
	if err != nil {
		return err
	}
	v, err := resp.Int64(0, 3)
	lr.walBytes += v
	return err
}

// counters is one scrape of /metrics, the /stats total row and the
// flips /tune reports.
type counters struct {
	metrics []series
	stats   map[string]float64
	flips   float64
}

func scrape(c *server.Client) (counters, error) {
	var out counters
	resp, err := c.Exec("/metrics")
	if err != nil {
		return out, err
	}
	var text strings.Builder
	for _, row := range resp.Rows {
		text.WriteString(row[0])
		text.WriteByte('\n')
	}
	if out.metrics, err = parseProm(text.String()); err != nil {
		return out, err
	}
	if resp, err = c.Exec("/stats"); err != nil {
		return out, err
	}
	out.stats = map[string]float64{}
	for _, row := range resp.Rows {
		if row[0] != "total" {
			continue
		}
		for j, col := range resp.Columns[1 : len(resp.Columns)-1] {
			v, err := strconv.ParseFloat(row[j+1], 64)
			if err != nil {
				return out, fmt.Errorf("/stats %s: %w", col, err)
			}
			out.stats[col] = v
		}
	}
	// /tune answers an error when autotune is off: no flips.
	if resp, err = c.Do("/tune"); err != nil {
		return out, err
	}
	for _, row := range resp.Rows {
		v, err := strconv.ParseFloat(row[5], 64)
		if err != nil {
			return out, fmt.Errorf("/tune flips: %w", err)
		}
		out.flips += v
	}
	return out, nil
}

// since is the work done between an earlier scrape and this one. Set-up
// (loading, warm-up cracking) is left out this way. Pieces is a level,
// not a count, and keeps its latest value.
func (a counters) since(b counters) counters {
	prev := map[string]float64{}
	for _, s := range b.metrics {
		prev[s.key()] = s.value
	}
	out := counters{stats: map[string]float64{}, flips: a.flips - b.flips}
	for _, s := range a.metrics {
		d := s
		d.value -= prev[s.key()]
		out.metrics = append(out.metrics, d)
	}
	for k, v := range a.stats {
		out.stats[k] = v - b.stats[k]
	}
	out.stats["pieces"] = a.stats["pieces"]
	return out
}

func replayInProcess(b *bench, dir string, lr *layerRun) error {
	if b.reset != nil {
		b.reset()
	}
	st, err := b.setup(dir)
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	// The same instrumentation the wire pass's server turns on.
	st.EnableObservability(1)
	tr := lr.inproc
	rec := &recBackend{st: st, tr: tr}
	eng := sql.NewEngineOn(rec)
	r := lr.r
	for i, o := range lr.ops {
		stmt := i + 1
		root := tr.start("stmt", stmt, 0)
		rec.stmt = stmt
		switch o.kind {
		case opSave:
			id := tr.start("shard.checkpoint", stmt, root)
			_, err := st.CheckpointMode("delta")
			tr.end(id, 0)
			if err != nil {
				return err
			}
		case opBatch:
			// The server's window path: fold each statement to a range,
			// then one batched count.
			ranges := make([]crackdb.Range, len(o.stmts))
			var rc sql.RangeCount
			for j, s := range o.stmts {
				id := tr.start("sql.parse", stmt, root)
				var ok bool
				rc, ok = sql.ClassifyRangeCount(s)
				tr.end(id, 0)
				if !ok {
					return fmt.Errorf("window statement %q is not a range count", s)
				}
				ranges[j] = rc.Range()
			}
			rec.parent = root
			counts, err := rec.CountBatch(rc.Table, rc.Col, ranges)
			r.attempted += int64(len(ranges))
			if err != nil {
				r.failed += int64(len(ranges))
				break
			}
			for j, n := range counts {
				if int64(n) != o.wants[j] {
					r.addWrong("in process: %s: count %d, want %d", o.stmts[j], n, o.wants[j])
				}
			}
		default:
			r.attempted++
			id := tr.start("sql.parse", stmt, root)
			parsed, err := sql.Parse(o.stmt)
			tr.end(id, 0)
			if err != nil {
				r.failed++
				break
			}
			id = tr.start("sql.exec", stmt, root)
			rec.parent = id
			rs, err := eng.ExecStmt(parsed)
			n := int64(0)
			if rs != nil {
				n = int64(len(rs.Rows))
			}
			tr.end(id, n)
			if err != nil {
				r.failed++
				break
			}
			if err := checkResponse(o, 0, asResponse(rs)); err != nil {
				r.addWrong("in process: %s: %v", o.stmt, err)
			} else if b.onAck != nil && (o.kind == opInsert || o.kind == opDelete) {
				b.onAck(o)
			}
		}
		tr.end(root, 0)
	}
	return st.CloseWAL()
}

// asResponse renders a result set the way the server puts it on the
// wire, so one checker serves both passes.
func asResponse(rs *sql.ResultSet) *server.Response {
	if rs.Message != "" {
		return &server.Response{Message: rs.Message}
	}
	resp := &server.Response{Columns: rs.Columns, Rows: make([][]string, len(rs.Rows))}
	for i, row := range rs.Rows {
		cells := make([]string, len(row))
		for j, v := range row {
			cells[j] = strconv.FormatInt(v, 10)
		}
		resp.Rows[i] = cells
	}
	return resp
}

// fileStamp identifies one version of a file.
type fileStamp struct {
	size int64
	mod  time.Time
}

func listFiles(root string) map[string]fileStamp {
	out := map[string]fileStamp{}
	filepath.Walk(root, func(path string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			out[path] = fileStamp{info.Size(), info.ModTime()}
		}
		return nil
	})
	return out
}

// writtenSince sums the sizes of the files that are new or changed,
// leaving out the WAL and its archived segments (wal.log.<seq>), whose
// bytes are counted from /wal before each rotation.
func writtenSince(before, after map[string]fileStamp) int64 {
	var total int64
	for path, st := range after {
		if strings.HasPrefix(filepath.Base(path), "wal.log") {
			continue
		}
		if old, ok := before[path]; !ok || old != st {
			total += st.size
		}
	}
	return total
}
