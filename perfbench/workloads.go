package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync/atomic"
	"time"

	"crackdb"
	"crackdb/internal/mqs"
	"crackdb/internal/server"
	"crackdb/internal/shard"
	"crackdb/internal/tuner"
	"crackdb/internal/workload"
)

// opKind is what one client action does.
type opKind int

const (
	opCount opKind = iota
	opSelect
	opBatch
	opInsert
	opDelete
	opSave
)

func (k opKind) String() string {
	return [...]string{"count", "select", "batch", "insert", "delete", "save"}[k]
}

// op is one client action: a single statement, or a 64-statement window
// sent with DoBatch. want is the COUNT a statement must return (per
// statement for a window), or the rows a mutation must report.
type op struct {
	kind  opKind
	stmt  string
	stmts []string
	want  int64
	wants []int64
	check func(*server.Response) error // extra check of a SELECT's rows
	rows  int64                        // rows a SELECT returns, for per-row figures
}

// script yields a connection's i-th action. Scripts are deterministic
// in i given the workload seed (the ingest reader also reads the
// acknowledged-insert counter, which a single-connection replay makes
// deterministic too).
type script func(i int) op

// bench is one prepared workload: its connections' scripts, the
// set-up that builds a store the way cracksrv would, and the checks run
// after the timed phase.
type bench struct {
	scripts []script
	// replayLen is the length of the traced run's fixed-order
	// single-connection replay, which takes one action of each script in
	// turn.
	replayLen int
	// setup builds the store in dir (used only by durable workloads).
	// setup_s is the median over at least setups set-ups; cheap set-ups
	// repeat more often, so each run spends a few seconds on them.
	setup  func(dir string) (*shard.Store, error)
	setups int
	// roundSeconds is the nominal length of one timed round; each round
	// runs on a freshly built store.
	roundSeconds int
	// finish runs after the server has stopped: it may close, reopen and
	// verify the store, and adds workload-specific figures.
	finish func(st *shard.Store, dir string, r *result) error
	// onAck sees each acknowledged mutation; reset forgets them before a
	// fresh store is built.
	onAck func(o op)
	reset func()
}

// replayOp is the traced run's i-th action.
func (b *bench) replayOp(i int) op {
	return b.scripts[i%len(b.scripts)](i / len(b.scripts))
}

const (
	tableName = "t"
	windowLen = 64
)

func countStmt(col string, lo, hi int64) string {
	return fmt.Sprintf("SELECT COUNT(*) FROM %s WHERE %s >= %d AND %s <= %d", tableName, col, lo, col, hi)
}

// logWidth maps u in [0, 1) log-uniformly onto [lo, hi].
func logWidth(u float64, lo, hi int64) int64 {
	v := int64(math.Exp(math.Log(float64(lo)) + u*(math.Log(float64(hi))-math.Log(float64(lo)))))
	return min(max(v, lo), hi)
}

// stratified returns n values in [0, 1), one from each of n equal
// strata, in shuffled order: every seed draws nearly the same
// distribution.
func stratified(rng *rand.Rand, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = (float64(i) + rng.Float64()) / float64(n)
	}
	rng.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// cycle turns a fixed list of actions into a script that repeats it.
func cycle(ops []op) script {
	return func(i int) op { return ops[i%len(ops)] }
}

// tapestryC1 regenerates the tapestry t(c0, c1) from (n, 2, seed)
// through internal/mqs and returns c1 indexed by c0, which is a
// permutation of 1..n.
func tapestryC1(n int, seed int64) []int64 {
	t := mqs.Tapestry(n, 2, seed)
	c0, c1 := t.MustColumn("c0").Ints(), t.MustColumn("c1").Ints()
	byKey := make([]int64, n+1)
	for i, k := range c0 {
		byKey[k] = c1[i]
	}
	return byKey
}

// --- converged-read -------------------------------------------------

const (
	crRows     = 1_000_000
	crPool     = 512 // actions per connection, about a round's worth, repeated
	crReplay   = 2600
	crMinWidth = 10
	crMaxWidth = 100_000
)

// crPattern is each connection's repeating mix: in every ten actions,
// six scalar COUNTs, two SELECTs and two 64-statement windows.
var crPattern = [...]opKind{opCount, opCount, opSelect, opCount, opBatch, opCount, opCount, opSelect, opCount, opBatch}

func newConvergedRead(seed int64) *bench {
	c1 := tapestryC1(crRows, seed)
	rng := rand.New(rand.NewSource(seed))
	var ranges [][2]int64 // every c0 range the pools query, for warm-up
	pools := make([][]op, 2)
	for c := range pools {
		kinds := map[opKind]int{}
		for i := 0; i < crPool; i++ {
			kinds[crPattern[i%len(crPattern)]]++
		}
		// Widths of each kind's ranges are stratified draws, so seeds
		// differ in where ranges fall, not in how much work they ask for.
		widths := map[opKind][]float64{
			opCount:  stratified(rng, kinds[opCount]),
			opSelect: stratified(rng, kinds[opSelect]),
			opBatch:  stratified(rng, kinds[opBatch]*windowLen),
		}
		resids := stratified(rng, kinds[opSelect]/2)
		drawRange := func(k opKind) (int64, int64) {
			w := logWidth(widths[k][0], crMinWidth, crMaxWidth)
			widths[k] = widths[k][1:]
			lo := 1 + rng.Int63n(crRows-w+1)
			ranges = append(ranges, [2]int64{lo, lo + w - 1})
			return lo, lo + w - 1
		}
		for i := 0; i < crPool; i++ {
			switch k := crPattern[i%len(crPattern)]; k {
			case opCount:
				lo, hi := drawRange(k)
				pools[c] = append(pools[c], op{kind: opCount, stmt: countStmt("c0", lo, hi), want: hi - lo + 1})
			case opSelect:
				lo, hi := drawRange(k)
				var resid int64 // 0: no residual predicate
				stmt := fmt.Sprintf("SELECT c0, c1 FROM %s WHERE c0 >= %d AND c0 <= %d", tableName, lo, hi)
				if len(resids) > 0 && i/len(crPattern)%2 == 0 {
					resid = 1 + int64(resids[0]*crRows)
					resids = resids[1:]
					stmt += fmt.Sprintf(" AND c1 <= %d", resid)
				}
				want := int64(0)
				for k := lo; k <= hi; k++ {
					if resid == 0 || c1[k] <= resid {
						want++
					}
				}
				pools[c] = append(pools[c], op{kind: opSelect, stmt: stmt, rows: want,
					check: func(resp *server.Response) error { return checkRows(resp, lo, hi, resid, c1) }})
			case opBatch:
				o := op{kind: opBatch}
				for j := 0; j < windowLen; j++ {
					lo, hi := drawRange(k)
					o.stmts = append(o.stmts, countStmt("c0", lo, hi))
					o.wants = append(o.wants, hi-lo+1)
				}
				pools[c] = append(pools[c], o)
			}
		}
	}
	scripts := []script{cycle(pools[0]), cycle(pools[1])}
	warm := make([]crackdb.Range, len(ranges))
	for i, r := range ranges {
		warm[i] = crackdb.Range{Low: r[0], High: r[1]}
	}
	rng.Shuffle(len(warm), func(i, j int) { warm[i], warm[j] = warm[j], warm[i] })
	return &bench{
		scripts:      scripts,
		replayLen:    crReplay,
		setups:       5,
		roundSeconds: 2,
		setup: func(string) (*shard.Store, error) {
			st := shard.New(shard.Options{Shards: 1, Kind: shard.Hash})
			if err := st.LoadTapestry(tableName, crRows, 2, seed); err != nil {
				return nil, err
			}
			return st, converge(st, warm)
		},
	}
}

// converge cracks c0 with the warm-up ranges, in shuffled order, until a
// whole pass adds no crack: from then on every range the timed phase
// sends is answered from the cut index.
func converge(st *shard.Store, warm []crackdb.Range) error {
	for pass := 0; pass < 8; pass++ {
		before, err := st.Stats(tableName, "c0")
		if err != nil {
			return err
		}
		for i := 0; i < len(warm); i += windowLen {
			if _, err := st.CountBatch(tableName, "c0", warm[i:min(i+windowLen, len(warm))]); err != nil {
				return err
			}
		}
		after, err := st.Stats(tableName, "c0")
		if err != nil {
			return err
		}
		if pass > 0 && after.Cracks == before.Cracks {
			return nil
		}
	}
	return fmt.Errorf("warm-up: c0 still cracking after 8 passes")
}

// checkRows verifies a SELECT c0, c1 answer against the regenerated
// tapestry: every key of [lo, hi] whose c1 passes the residual, in key
// order (the shard router's canonical order).
func checkRows(resp *server.Response, lo, hi, resid int64, c1 []int64) error {
	i := 0
	for k := lo; k <= hi; k++ {
		v := c1[k]
		if resid != 0 && v > resid {
			continue
		}
		if i >= len(resp.Rows) {
			return fmt.Errorf("%d rows, want more", len(resp.Rows))
		}
		row := resp.Rows[i]
		if len(row) != 2 {
			return fmt.Errorf("row %d has %d cells", i, len(row))
		}
		gk, err1 := strconv.ParseInt(row[0], 10, 64)
		gv, err2 := strconv.ParseInt(row[1], 10, 64)
		if err1 != nil || err2 != nil || gk != k || gv != v {
			return fmt.Errorf("row %d is (%s, %s), want (%d, %d)", i, row[0], row[1], k, v)
		}
		i++
	}
	if i != len(resp.Rows) {
		return fmt.Errorf("%d rows, want %d", len(resp.Rows), i)
	}
	return nil
}

// --- crack-cold -----------------------------------------------------

const (
	ccRows   = 1_000_000
	ccShards = 4
	ccWidth  = 100
	ccPool   = 200_000 // random stream length; it repeats when exhausted
	ccReplay = 4000
)

func newCrackCold(seed int64) (*bench, error) {
	sel := float64(ccWidth) / ccRows
	random, err := workload.New(workload.Random, workload.Config{Domain: ccRows, Count: ccPool, Selectivity: sel, Seed: seed})
	if err != nil {
		return nil, err
	}
	// One walk over the whole key domain, range after range; it repeats
	// when exhausted.
	seq, err := workload.New(workload.Sequential, workload.Config{Domain: ccRows, Count: ccRows / ccWidth, Selectivity: sel, Seed: seed})
	if err != nil {
		return nil, err
	}
	stream := func(g *workload.Generator, col string) []op {
		qs := g.Queries()
		ops := make([]op, len(qs))
		for i, q := range qs {
			// Generator ranges are half-open over [0, n); tapestry keys are 1..n.
			ops[i] = op{kind: opCount, stmt: countStmt(col, q.Lo+1, q.Hi), want: q.Hi - q.Lo}
		}
		return ops
	}
	scripts := []script{cycle(stream(random, "c0")), cycle(stream(seq, "c1"))}
	return &bench{
		scripts:      scripts,
		replayLen:    ccReplay,
		setups:       9,
		roundSeconds: 5,
		setup: func(string) (*shard.Store, error) {
			st := shard.New(shard.Options{Shards: ccShards, Kind: shard.Hash})
			st.EnableAutotune(tuner.Config{})
			return st, st.LoadTapestry(tableName, ccRows, 2, seed)
		},
	}, nil
}

// --- ingest-durable -------------------------------------------------

const (
	idRows        = 200_000
	idShards      = 2
	idSaveEvery   = 100     // mutations between /save delta
	idDeleteEvery = 8       // every 8th mutation is a DELETE
	idReads       = 100_000 // reader draws; they repeat when exhausted
	idReplay      = 4400    // 2200 writer actions: at least 20 checkpoints for their median
	idMaxRead     = 10_000
)

// idState is the ingest workload's acknowledged history.
type idState struct {
	inserted atomic.Int64 // inserts acknowledged; they hold keys n+1..n+inserted
	deleted  []bool       // band keys acknowledged deleted, by key-n/2
	nDeleted int64
}

func newIngestDurable(seed int64) *bench {
	const n = idRows
	rng := rand.New(rand.NewSource(seed))
	band := rng.Perm(n / 2) // DELETE order over the top half of the base keys
	val := func(j int) int64 { return 1 + int64(splitmix64(uint64(seed)<<32^uint64(j))%n) }
	// The writer: single-row INSERTs of keys above the domain, every
	// idDeleteEvery-th mutation a DELETE from the reserved band, and a
	// /save delta after every idSaveEvery mutations. Keys above n and the
	// band (n/2, n] both live in the top range shard. The i-th action is
	// a function of i alone, so the stream has no end.
	writer := func(i int) op {
		if i%(idSaveEvery+1) == idSaveEvery {
			return op{kind: opSave, stmt: "/save delta"}
		}
		m := i - i/(idSaveEvery+1) // mutations before this action
		if m%idDeleteEvery == idDeleteEvery-1 {
			k := int64(n/2 + 1 + band[(m/idDeleteEvery)%len(band)])
			return op{kind: opDelete, stmt: fmt.Sprintf("DELETE FROM %s WHERE c0 = %d", tableName, k), want: k}
		}
		j := m - m/idDeleteEvery // inserts before this one
		k := int64(n + 1 + j)
		return op{kind: opInsert, stmt: fmt.Sprintf("INSERT INTO %s VALUES (%d, %d)", tableName, k, val(j)), want: k}
	}
	us := make([]float64, idReads)
	ws := make([]int64, idReads)
	for i, u := range stratified(rng, idReads) {
		us[i], ws[i] = rng.Float64(), logWidth(u, 1, idMaxRead)
	}
	state := &idState{deleted: make([]bool, n/2+1)}
	// The reader COUNTs a range inside the prefix of acknowledged
	// inserts; its position and width were drawn before the run.
	reader := func(i int) op {
		a := state.inserted.Load()
		if a == 0 {
			return op{kind: opCount, stmt: countStmt("c0", n+1, n), want: 0}
		}
		w := min(ws[i%len(ws)], a)
		lo := n + 1 + int64(us[i%len(us)]*float64(a-w+1))
		return op{kind: opCount, stmt: countStmt("c0", lo, lo+w-1), want: w}
	}
	b := &bench{scripts: []script{writer, reader}, replayLen: idReplay, setups: 15, roundSeconds: 4}
	b.onAck = func(o op) {
		switch o.kind {
		case opInsert:
			state.inserted.Add(1)
		case opDelete:
			state.deleted[o.want-n/2] = true
			state.nDeleted++
		}
	}
	b.reset = func() {
		state.inserted.Store(0)
		clear(state.deleted)
		state.nDeleted = 0
	}
	opts := shard.Options{Shards: idShards, Kind: shard.Range}
	b.setup = func(dir string) (*shard.Store, error) {
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
		st, _, err := shard.OpenDurable(dir, opts)
		if err != nil {
			return nil, err
		}
		st.SetCheckpointDelta(true)
		if err := st.LoadTapestry(tableName, n, 2, seed); err != nil {
			return nil, err
		}
		_, err = st.CheckpointMode("full")
		return st, err
	}
	b.finish = func(st *shard.Store, dir string, r *result) error {
		r.diskBytes = dirBytes(dir)
		if err := st.CloseWAL(); err != nil {
			return err
		}
		live := int64(n) - state.nDeleted + state.inserted.Load()
		r.liveRows = live
		var boots []float64
		var reopened *shard.Store
		for i := 0; i < 3; i++ {
			t0 := time.Now()
			s2, info, err := shard.OpenDurable(dir, opts)
			if err != nil {
				return fmt.Errorf("reboot: %w", err)
			}
			boots = append(boots, time.Since(t0).Seconds())
			r.boot = info
			if i < 2 {
				if err := s2.CloseWAL(); err != nil {
					return err
				}
			}
			reopened = s2
		}
		r.bootS = median(boots)
		defer reopened.CloseWAL()
		if err := verifyIngest(reopened, state, val, live); err != nil {
			r.addWrong("after reboot: %v", err)
		}
		return nil
	}
	return b
}

// verifyIngest checks the rebooted store: every acknowledged insert
// present with its value, every acknowledged delete absent and every
// other band key present, and COUNT(*) equal to the acknowledged total.
func verifyIngest(st *shard.Store, state *idState, val func(int) int64, live int64) error {
	const n = idRows
	total, err := st.CountWhere(tableName)
	if err != nil {
		return err
	}
	if int64(total) != live {
		return fmt.Errorf("COUNT(*) = %d, want %d", total, live)
	}
	res, err := st.SelectWhere(tableName, crackdb.Cond{Col: "c0", Op: ">", Val: n})
	if err != nil {
		return err
	}
	rows, err := res.Rows("c0", "c1")
	if err != nil {
		return err
	}
	if int64(len(rows)) != state.inserted.Load() {
		return fmt.Errorf("%d inserted rows, want %d", len(rows), state.inserted.Load())
	}
	for j, row := range rows {
		if row[0] != int64(n+1+j) || row[1] != val(j) {
			return fmt.Errorf("inserted row %d is %v, want [%d %d]", j, row, n+1+j, val(j))
		}
	}
	res, err = st.SelectWhere(tableName,
		crackdb.Cond{Col: "c0", Op: ">", Val: n / 2}, crackdb.Cond{Col: "c0", Op: "<=", Val: n})
	if err != nil {
		return err
	}
	rows, err = res.Rows("c0")
	if err != nil {
		return err
	}
	keys := make([]int64, len(rows))
	for i, row := range rows {
		keys[i] = row[0]
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	i := 0
	for k := int64(n/2 + 1); k <= n; k++ {
		if state.deleted[k-n/2] {
			continue
		}
		if i >= len(keys) || keys[i] != k {
			return fmt.Errorf("band key %d missing or out of place", k)
		}
		i++
	}
	if i != len(keys) {
		return fmt.Errorf("%d band keys, want %d", len(keys), i)
	}
	return nil
}

// splitmix64 is a stateless 64-bit mix: a seeded value per index.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// dirBytes sums the sizes of the regular files under root.
func dirBytes(root string) int64 {
	var total int64
	filepath.Walk(root, func(_ string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			total += info.Size()
		}
		return nil
	})
	return total
}
