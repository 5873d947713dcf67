package server

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"crackdb"
	"crackdb/internal/shard"
	"crackdb/internal/sql"
)

// Server serves the wire protocol over a sharded cracker store. One
// goroutine per connection; the engine and store are safe for
// concurrent use, so clients run genuinely in parallel — including the
// cracking itself, which the shard router spreads over per-shard locks.
type Server struct {
	store *shard.Store
	eng   *sql.Engine
	batch sql.BatchCounter
	logf  func(format string, args ...any)

	mu      sync.Mutex
	ln      net.Listener
	conns   map[net.Conn]struct{}
	closing bool
	wg      sync.WaitGroup

	// obsv is nil until EnableObservability (see obs.go in this package);
	// the request path pays one atomic load when it is off.
	obsv atomic.Pointer[serverObs]

	// repl is the replication role and peer book (see repl.go): the
	// advertised address, the primary this server follows (making it a
	// read-only replica), and per-follower pull positions.
	repl replState
}

// New wraps a sharded store. logf receives one line per lifecycle event
// (nil silences logging).
func New(store *shard.Store, logf func(format string, args ...any)) *Server {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	return &Server{
		store: store,
		eng:   sql.NewEngineOn(store),
		batch: store,
		logf:  logf,
		conns: make(map[net.Conn]struct{}),
	}
}

// ListenAndServe listens on addr and serves until Shutdown.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// Serve accepts connections on ln until Shutdown. It returns nil after
// a clean shutdown.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closing {
		// Shutdown won the race before the listener was registered
		// (e.g. SIGTERM immediately after spawn): that is still a clean
		// stop, not an error — close the listener Shutdown never saw.
		s.mu.Unlock()
		ln.Close()
		return nil
	}
	s.ln = ln
	s.mu.Unlock()
	s.logf("listening on %s (%d shards)", ln.Addr(), s.store.ShardCount())
	for {
		conn, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closing := s.closing
			s.mu.Unlock()
			if closing {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.closing {
			s.mu.Unlock()
			conn.Close()
			return nil
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go s.handle(conn)
	}
}

// Shutdown stops accepting, waits up to timeout for in-flight requests,
// then force-closes the stragglers. Safe to call once.
func (s *Server) Shutdown(timeout time.Duration) {
	s.mu.Lock()
	s.closing = true
	ln := s.ln
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	done := make(chan struct{})
	go func() { s.wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(timeout):
		s.mu.Lock()
		for c := range s.conns {
			c.Close()
		}
		s.mu.Unlock()
		<-done
	}
	s.logf("shutdown complete")
}

// maxWindow bounds how many in-flight requests one connection's service
// window may hold before responses start flowing back.
const maxWindow = 128

// wireReq is one parsed request frame in a connection's service window.
type wireReq struct {
	cmd    string
	seq    uint64
	tagged bool
}

// parseWireReq splits the optional "@<seq> " pipeline tag off a request
// payload. A malformed tag is left in the statement, so it surfaces to
// the client as an ordinary parse error rather than a dropped frame.
func parseWireReq(payload []byte) wireReq {
	if len(payload) > 0 && payload[0] == '@' {
		if sp := bytes.IndexByte(payload, ' '); sp >= 2 {
			if v, err := strconv.ParseUint(string(payload[1:sp]), 10, 64); err == nil {
				return wireReq{cmd: strings.TrimSpace(string(payload[sp+1:])), seq: v, tagged: true}
			}
		}
	}
	return wireReq{cmd: strings.TrimSpace(string(payload))}
}

// handle serves one connection. The loop blocks for the first request,
// then drains whatever further frames the client has already pipelined
// into the read buffer (up to maxWindow) and serves the whole window
// before flushing: co-shard range counts inside the window collapse
// into one batched store entry, and N responses leave in one write.
// Synchronous clients see exactly the old one-in-one-out behaviour —
// their window is always a single request.
func (s *Server) handle(conn net.Conn) {
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		s.wg.Done()
	}()
	br := bufio.NewReaderSize(conn, 1<<16)
	bw := bufio.NewWriterSize(conn, 1<<16)
	reqBuf, respBuf := getFrameBuf(), getFrameBuf()
	defer func() {
		putFrameBuf(reqBuf)
		putFrameBuf(respBuf)
	}()
	var win []wireReq
	for {
		payload, err := readFrame(br, reqBuf)
		if err != nil {
			return // EOF or broken peer: drop the connection
		}
		reqBuf = payload
		win = append(win[:0], parseWireReq(payload))
		for len(win) < maxWindow {
			payload, ok, err := readBufferedFrame(br, reqBuf)
			if err != nil {
				return
			}
			if !ok {
				break
			}
			reqBuf = payload
			win = append(win, parseWireReq(payload))
		}
		s.noteWindow(len(win))
		quit, err := s.serveWindow(bw, win, &respBuf)
		if err != nil {
			return
		}
		if err := bw.Flush(); err != nil {
			return
		}
		if quit {
			return
		}
	}
}

// serveWindow executes one connection's in-flight window in request
// order. Maximal consecutive runs of range-count statements on the same
// (table, column) — the co-shard work a pipelining client naturally
// emits — execute as one batched store entry; everything else
// dispatches individually. Responses are written (buffered, unflushed)
// in request order, each echoing its request's sequence tag. A /quit
// answers and stops the connection; any requests a client pipelined
// behind its /quit are dropped with it.
func (s *Server) serveWindow(bw *bufio.Writer, win []wireReq, respBuf *[]byte) (quit bool, err error) {
	reply := func(req wireReq, resp *Response) error {
		resp.Seq, resp.HasSeq = req.seq, req.tagged
		*respBuf = resp.encode(*respBuf)
		return writeFrame(bw, *respBuf)
	}
	// Classify the window once; rc[i] holds request i's folded range when
	// it is a pure single-column range COUNT(*).
	rcs := make([]sql.RangeCount, len(win))
	isRC := make([]bool, len(win))
	if len(win) > 1 {
		for i, req := range win {
			if !strings.HasPrefix(req.cmd, "/") {
				rcs[i], isRC[i] = sql.ClassifyRangeCount(req.cmd)
			}
		}
	}
	for i := 0; i < len(win); {
		// Extend a run of batchable counts on the same table and column.
		j := i
		for j < len(win) && isRC[j] && rcs[j].Table == rcs[i].Table && rcs[j].Col == rcs[i].Col {
			j++
		}
		if j-i >= 2 {
			ranges := make([]crackdb.Range, j-i)
			for k := i; k < j; k++ {
				ranges[k-i] = rcs[k].Range()
			}
			counts, err := s.batch.CountBatch(rcs[i].Table, rcs[i].Col, ranges)
			if err != nil {
				// Per-request fallback keeps error text identical to the
				// scalar path (e.g. unknown table, unknown column).
				for k := i; k < j; k++ {
					resp, _ := s.dispatchTimed(win[k].cmd)
					if werr := reply(win[k], resp); werr != nil {
						return false, werr
					}
				}
			} else {
				for k := i; k < j; k++ {
					resp := &Response{Columns: []string{"count(*)"}, Rows: [][]string{{strconv.Itoa(counts[k-i])}}}
					if werr := reply(win[k], resp); werr != nil {
						return false, werr
					}
				}
			}
			i = j
			continue
		}
		resp, q := s.dispatchTimed(win[i].cmd)
		if werr := reply(win[i], resp); werr != nil {
			return false, werr
		}
		if q {
			return true, nil
		}
		i++
	}
	return false, nil
}

// dispatch executes one request. quit asks the handler to close the
// connection after replying.
func (s *Server) dispatch(cmd string) (resp *Response, quit bool) {
	if strings.HasPrefix(cmd, "/") {
		return s.meta(cmd)
	}
	if p := s.primaryAddr(); p != "" && !readOnlyStmt(cmd) {
		return &Response{Err: "read-only follower; primary=" + p}, false
	}
	rs, err := s.eng.Exec(cmd)
	if err != nil {
		return &Response{Err: err.Error()}, false
	}
	return fromResultSet(rs), false
}

// fromResultSet wraps a SQL result for the wire. The rows stay int64
// until encode writes them into the frame.
func fromResultSet(rs *sql.ResultSet) *Response {
	if rs.Message != "" {
		return &Response{Message: rs.Message}
	}
	return &Response{Columns: rs.Columns, ints: rs.Rows}
}

// meta executes a /command.
func (s *Server) meta(cmd string) (*Response, bool) {
	fields := strings.Fields(cmd)
	switch fields[0] {
	case "/ping":
		return &Response{Message: "pong"}, false
	case "/quit":
		return &Response{Message: "bye"}, true
	case "/help":
		return &Response{Message: "/ping /tables /shards /stats [<table> <col>] /metrics /strategy <name> [seed] [shard] /tune [<table> <col> <strategy>|auto] /tapestry <name> <n> <alpha> [seed] /save [full|delta] /wal /repl /replwait <seq> /quit — anything else is SQL"}, false
	case "/repl":
		return s.replStatusMeta()
	case "/replmanifest":
		return s.replManifestMeta()
	case "/replfetch":
		return s.replFetchMeta(fields)
	case "/replpull":
		return s.replPullMeta(fields)
	case "/replwait":
		return s.replWaitMeta(fields)
	case "/save":
		// Checkpoint: warm snapshot + WAL rotation. Requires a store booted
		// with -data; mutations block for the duration, queries keep running.
		// An optional argument forces the mode: "full" rewrites the whole
		// image, "delta" appends a differential chain element carrying only
		// the shards that changed; bare /save uses the store's default
		// (-ckptdelta).
		if !s.store.Durable() {
			return &Response{Err: "store is not durable (start cracksrv with -data)"}, false
		}
		mode := ""
		if len(fields) > 1 {
			mode = fields[1]
		}
		// Pruning happens at the rotation this checkpoint triggers; refresh
		// the floor first so a follower long gone stops pinning archives.
		s.refreshPruneFloor()
		ran, err := s.store.CheckpointMode(mode)
		if err != nil {
			return &Response{Err: err.Error()}, false
		}
		st, _ := s.store.WALStatus()
		s.logf("checkpoint complete (%s, wal rotated at seq %d)", ran, st.BaseSeq)
		return &Response{Message: fmt.Sprintf("checkpoint complete (%s), wal rotated at seq %d", ran, st.BaseSeq)}, false
	case "/wal":
		st, ok := s.store.WALStatus()
		if !ok {
			return &Response{Err: "store is not durable (start cracksrv with -data)"}, false
		}
		return &Response{
			Columns: []string{"base_seq", "next_seq", "records", "bytes"},
			Rows: [][]string{{
				strconv.FormatUint(st.BaseSeq, 10),
				strconv.FormatUint(st.NextSeq, 10),
				strconv.FormatUint(st.Records, 10),
				strconv.FormatInt(st.Bytes, 10),
			}},
		}, false
	case "/tables":
		resp := &Response{Columns: []string{"table", "rows", "columns"}}
		for _, t := range s.store.Tables() {
			n, err := s.store.NumRows(t)
			if err != nil {
				return &Response{Err: err.Error()}, false
			}
			cols, err := s.store.Columns(t)
			if err != nil {
				return &Response{Err: err.Error()}, false
			}
			resp.Rows = append(resp.Rows, []string{t, strconv.Itoa(n), strings.Join(cols, ",")})
		}
		return resp, false
	case "/shards":
		resp := &Response{Columns: []string{"table", "key", "scheme", "shards"}}
		for _, p := range s.store.Partitions() {
			resp.Rows = append(resp.Rows, []string{p.Table, p.Key, p.Scheme, strconv.Itoa(p.Shards)})
		}
		return resp, false
	case "/metrics":
		return s.metricsMeta()
	case "/stats":
		if len(fields) == 1 {
			return s.statsSummary()
		}
		if len(fields) != 3 {
			return &Response{Err: "usage: /stats [<table> <column>]"}, false
		}
		per, err := s.store.ShardStats(fields[1], fields[2])
		if err != nil {
			return &Response{Err: err.Error()}, false
		}
		resp := &Response{Columns: []string{
			"shard", "queries", "cracks", "aux_cracks", "index_lookups",
			"pieces", "tuples_moved", "tuples_touched", "strategy",
		}}
		for i, cs := range per {
			resp.Rows = append(resp.Rows, statsRow(strconv.Itoa(i), cs))
		}
		total, err := s.store.Stats(fields[1], fields[2])
		if err != nil {
			return &Response{Err: err.Error()}, false
		}
		resp.Rows = append(resp.Rows, statsRow("total", total))
		return resp, false
	case "/strategy":
		if p := s.primaryAddr(); p != "" {
			// A strategy change is WAL-logged; a locally-initiated one would
			// desynchronize the follower's log position from the primary's.
			// Set it on the primary — the record replicates like any other.
			return &Response{Err: "read-only follower; primary=" + p}, false
		}
		if len(fields) < 2 || len(fields) > 4 {
			return &Response{Err: "usage: /strategy <name> [seed] [shard]"}, false
		}
		seed := int64(42)
		if len(fields) >= 3 {
			v, err := strconv.ParseInt(fields[2], 10, 64)
			if err != nil {
				return &Response{Err: "bad seed: " + err.Error()}, false
			}
			seed = v
		}
		if len(fields) == 4 {
			idx, err := strconv.Atoi(fields[3])
			if err != nil {
				return &Response{Err: "bad shard index: " + err.Error()}, false
			}
			if err := s.store.SetShardCrackStrategy(idx, fields[1], seed); err != nil {
				return &Response{Err: err.Error()}, false
			}
			return &Response{Message: fmt.Sprintf("strategy %s on shard %d", fields[1], idx)}, false
		}
		if err := s.store.SetCrackStrategy(fields[1], seed); err != nil {
			return &Response{Err: err.Error()}, false
		}
		return &Response{Message: fmt.Sprintf("strategy %s on all %d shards", fields[1], s.store.ShardCount())}, false
	case "/tune":
		// Inspect or override the auto-tuner's per-column decisions.
		// Forcing is deliberately not WAL-logged: strategies shape
		// performance, never results, so a follower may run a posture of
		// its own without diverging from the primary's log.
		if !s.store.AutotuneEnabled() {
			return &Response{Err: "autotune is not enabled (start cracksrv with -autotune)"}, false
		}
		if len(fields) == 1 {
			resp := &Response{Columns: []string{
				"shard", "table", "column", "strategy", "class", "flips", "queries", "forced",
			}}
			for _, d := range s.store.TuneDecisions() {
				resp.Rows = append(resp.Rows, []string{
					strconv.Itoa(d.Shard), d.Table, d.Column, d.Strategy, d.Class,
					strconv.FormatUint(d.Flips, 10), strconv.FormatUint(d.Queries, 10),
					strconv.FormatBool(d.Forced),
				})
			}
			return resp, false
		}
		if len(fields) != 4 {
			return &Response{Err: "usage: /tune [<table> <column> <strategy>|auto]"}, false
		}
		if fields[3] == "auto" {
			if err := s.store.ReleaseStrategy(fields[1], fields[2]); err != nil {
				return &Response{Err: err.Error()}, false
			}
			return &Response{Message: fmt.Sprintf("%s.%s released to automatic tuning", fields[1], fields[2])}, false
		}
		if err := s.store.ForceStrategy(fields[1], fields[2], fields[3]); err != nil {
			return &Response{Err: err.Error()}, false
		}
		return &Response{Message: fmt.Sprintf("%s.%s forced to %s on all %d shards", fields[1], fields[2], fields[3], s.store.ShardCount())}, false
	case "/tapestry":
		if p := s.primaryAddr(); p != "" {
			// Loading data locally would diverge the replica from the
			// primary's log.
			return &Response{Err: "read-only follower; primary=" + p}, false
		}
		if len(fields) < 4 || len(fields) > 5 {
			return &Response{Err: "usage: /tapestry <name> <n> <alpha> [seed]"}, false
		}
		n, err1 := strconv.Atoi(fields[2])
		alpha, err2 := strconv.Atoi(fields[3])
		if err1 != nil || err2 != nil {
			return &Response{Err: "n and alpha must be integers"}, false
		}
		seed := int64(42)
		if len(fields) == 5 {
			v, err := strconv.ParseInt(fields[4], 10, 64)
			if err != nil {
				return &Response{Err: "bad seed: " + err.Error()}, false
			}
			seed = v
		}
		if err := s.store.LoadTapestry(fields[1], n, alpha, seed); err != nil {
			return &Response{Err: err.Error()}, false
		}
		return &Response{Message: fmt.Sprintf("loaded tapestry %s (%d x %d)", fields[1], n, alpha)}, false
	default:
		return &Response{Err: fmt.Sprintf("unknown command %s (try /help)", fields[0])}, false
	}
}

func statsRow(label string, cs crackdb.ColumnStats) []string {
	strat := cs.Strategy
	if strat == "" {
		strat = "-" // fold of rows that carry no per-column strategy
	}
	return []string{
		label,
		strconv.Itoa(cs.Queries),
		strconv.Itoa(cs.Cracks),
		strconv.Itoa(cs.AuxCracks),
		strconv.Itoa(cs.IndexLookups),
		strconv.Itoa(cs.Pieces),
		strconv.FormatInt(cs.TuplesMoved, 10),
		strconv.FormatInt(cs.TuplesTouched, 10),
		strat,
	}
}
