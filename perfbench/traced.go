package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/dict"
	"repro/internal/durable"
	"repro/internal/engine"
	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/httpapi"
	"repro/internal/lubm"
	"repro/internal/metrics"
	"repro/internal/ntriples"
	"repro/internal/query"
	"repro/internal/rdf"
	"repro/internal/saturation"
	"repro/internal/trace"
	"repro/internal/viewcache"
)

// The traced run replays a workload's generated inputs in-process, calling
// each layer's public functions in the order refserve's request path calls
// them (httpapi → engine → core/cost → exec, and the update and durable
// paths), and records one span around every call. Spans live in memory,
// are written to spans.jsonl at the end and are rolled up into per-layer
// self time. The program itself gains no span or counter.

// span is one recorded call: name is "<layer>.<operation>"; start and end
// are nanoseconds since the recorder's epoch; parent indexes the
// enclosing span (-1 for a root); req numbers the root.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	Req    int32  `json:"req"`
}

// recorder keeps spans in memory. While off, begin and end are no-ops, so
// the same code path runs traced and untraced.
type recorder struct {
	on    bool
	epoch time.Time
	spans []span
	open  []int32
	req   int32
}

// Root span names. Only "request" roots count as request time.
const (
	rootRequest    = "request"
	rootBoot       = "boot"
	rootCheckpoint = "checkpoint"
	rootRecovery   = "recovery"
	rootProbe      = "probe"
)

func (r *recorder) begin(name string) int32 {
	if !r.on {
		return -1
	}
	parent := int32(-1)
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	} else {
		r.req++
	}
	i := int32(len(r.spans))
	r.spans = append(r.spans, span{Name: name, Start: int64(time.Since(r.epoch)), Parent: parent, Req: r.req})
	r.open = append(r.open, i)
	return i
}

func (r *recorder) end(i int32) {
	if i < 0 {
		return
	}
	r.spans[i].End = int64(time.Since(r.epoch))
	r.open = r.open[:len(r.open)-1]
}

// graft records the phases of an engine answer (the children of the
// tracer's "answer" root) as children of span parent, named by name. The
// engine's tracer keeps durations, not start times, so the phases are
// laid out back to back from the parent's start.
func (r *recorder) graft(parent int32, root *trace.Span, name func(string, []trace.Attr) string) {
	if parent < 0 {
		return
	}
	at := r.spans[parent].Start
	root.Visit(func(n string, depth int, dur time.Duration, attrs []trace.Attr) {
		if depth != 1 {
			return
		}
		r.spans = append(r.spans, span{Name: name(n, attrs), Start: at, End: at + int64(dur), Parent: parent, Req: r.spans[parent].Req})
		at += int64(dur)
	})
}

// do records fn as one span.
func (r *recorder) do(name string, fn func()) {
	i := r.begin(name)
	fn()
	r.end(i)
}

// tally counts work in traced requests only.
type tally struct {
	gcovCalls, coversExplored int
	reads, reformCQs, rowsOut int
	viewHits, fragments       int
	updates, fsyncs           int
	walBytes, userBytes       int64
	recoveries, replayed      int
	storeBytes, liveBytes     int64
}

// replica is refserve's engine for one graph, warmed and answering
// through the engine's public methods, plus the durable manager of
// read-write.
type replica struct {
	rec *recorder
	reg *metrics.Registry
	eng *engine.Engine
	// stale is set once an update has dropped the engine's store,
	// statistics and cost model: from then on every request's engine
	// copy rebuilds them, as refserve's do.
	stale   bool
	mgr     *durable.Manager
	shadow  *shadow
	probes  []probe
	updates []dataUpdate // applied to the shadow after the request
	t       tally
	enc     bytes.Buffer
}

// probe is a GCov outcome whose adopted cover is re-reformulated alone
// after the request, to time core.reformulate_jucq: GCov builds the same
// JUCQ inside its search, so this time is part of core.gcov, measured
// outside the request.
type probe struct {
	q     query.CQ
	cover query.Cover
}

// dataUpdate is one /v1/update's deleted and inserted triples.
type dataUpdate struct{ del, ins []rdf.Triple }

// shadow replays read-write's updates on a graph and counting closure of
// its own. engine.InsertData and DeleteData change the graph and then
// maintain the closure with no span between the two, so the replay times
// graph.add_data, graph.remove_data and saturation.maintain on this
// identical copy, outside the request.
type shadow struct {
	g *graph.Graph
	m *saturation.Maintained
}

func (s *shadow) apply(rec *recorder, u dataUpdate) error {
	root := rec.begin(rootProbe)
	defer rec.end(root)
	if s.m == nil {
		// The engine builds its closure on the pre-update data.
		s.m = saturation.NewMaintained(s.g)
	}
	var err error
	if len(u.del) > 0 {
		rec.do("graph.remove_data", func() { _, err = s.g.RemoveData(u.del) })
		if err != nil {
			return err
		}
		enc := encodeTriples(s.g, u.del)
		rec.do("saturation.maintain", func() {
			s.m.Delete(enc)
			s.m.Triples()
		})
	}
	rec.do("graph.add_data", func() { err = s.g.AddData(u.ins) })
	if err != nil {
		return err
	}
	enc := encodeTriples(s.g, u.ins)
	rec.do("saturation.maintain", func() {
		s.m.Insert(enc)
		s.m.Triples()
	})
	return nil
}

func encodeTriples(g *graph.Graph, ts []rdf.Triple) []dict.Triple {
	enc := make([]dict.Triple, 0, len(ts))
	for _, t := range ts {
		enc = append(enc, g.Dict().EncodeTriple(t))
	}
	return enc
}

// boot mirrors refserve's start: generate LUBM(1) (after recovering an
// empty data dir and before seeding it, for read-write), then the eager
// warm-up of httpapi.NewWithOptions, one span per structure, and the
// view cache refserve enables by default.
func boot(rec *recorder, w workload, dir string) (*replica, error) {
	r := &replica{rec: rec, reg: metrics.NewRegistry()}
	root := rec.begin(rootBoot)
	defer rec.end(root)
	var err error
	if w.writes {
		rec.do("durable.open", func() {
			r.mgr, err = durable.Open(dir, durable.Options{SyncMode: durable.SyncAlways, CheckpointBytes: 256 << 20, Shards: 1, Metrics: r.reg})
		})
		if err != nil {
			return nil, err
		}
		if _, _, err := r.recover(r.mgr, "_empty"); err != nil {
			return nil, err
		}
	}
	var (
		ts []rdf.Triple
		g  *graph.Graph
	)
	rec.do("lubm.generate", func() { ts = append(lubm.OntologyTriples(), lubm.Generate(lubmProfile(), dataSeed)...) })
	rec.do("graph.from_triples", func() { g, err = graph.FromTriples(ts) })
	if err != nil {
		return nil, err
	}
	if w.writes {
		rec.do("durable.checkpoint", func() { err = r.mgr.Checkpoint(g) })
		if err != nil {
			return nil, err
		}
		sg, err := graph.FromTriples(ts)
		if err != nil {
			return nil, err
		}
		r.shadow = &shadow{g: sg}
	}
	r.eng = engine.New(g)
	r.eng.Metrics = r.reg
	r.eng.CaptureFragmentSigs = true
	rec.do("storage.build", func() { r.eng.Source() })
	rec.do("stats.collect", func() { r.eng.Stats() })
	rec.do("saturation.saturate", func() { r.eng.Saturation() })
	rec.do("storage.build_sat", func() { r.eng.SatStore() })
	rec.do("stats.collect_sat", func() { r.eng.SatStats() })
	rec.do("core.reformulator_build", func() {
		r.eng.Reformulator()
		r.eng.IncompleteReformulator()
	})
	rec.do("cost.model_build", func() { r.eng.CostModel() })
	r.eng.EnableViewCache(viewcache.Config{MaxBytes: 64 << 20})
	return r, nil
}

// recover loads mgr's snapshot and replays its WAL tail, as refserve does
// at start, returning the recovered graph and the records replayed. The
// suffix names the spans apart: boot recovers an empty data dir.
func (r *replica) recover(mgr *durable.Manager, suffix string) (*graph.Graph, int, error) {
	var (
		g0  *graph.Graph
		st  durable.ReplayStats
		err error
	)
	r.rec.do("durable.load_graph"+suffix, func() { g0, err = mgr.LoadGraph(trace.New(0)) })
	if err != nil {
		return nil, 0, err
	}
	eng := engine.New(g0)
	r.rec.do("durable.replay"+suffix, func() { st, err = mgr.Replay(eng, trace.New(0)) })
	return eng.Graph(), st.Records, err
}

// read answers one query as refserve's /v1/query does and returns the
// rows, which the caller checks outside the request.
func (r *replica) read(ctx context.Context, rd read, strategy engine.Strategy) (*exec.Relation, error) {
	var (
		q   query.CQ
		err error
	)
	r.rec.do("query.parse", func() { q, err = query.ParseRuleWithPrefixes(r.eng.Graph().Dict(), prefixes, rd.text) })
	if err != nil {
		return nil, err
	}
	// Like /v1/query, answer on a shallow copy of the engine with its own
	// tracer; the copy shares the plan and view caches.
	eng := *r.eng
	eng.Budget = exec.Budget{Timeout: 30 * time.Second}
	eng.Tracer = trace.New(0)
	if r.stale {
		// The answer would build these lazily, the cost model inside its
		// "plan" span; building them first keeps them out of core.gcov.
		r.rec.do("storage.build", func() { eng.Source() })
		r.rec.do("stats.collect", func() { eng.Stats() })
		r.rec.do("cost.model_build", func() { eng.CostModel() })
	}
	var ans *engine.Answer
	i := r.rec.begin("engine.answer")
	ans, err = eng.AnswerContext(ctx, q, strategy)
	r.rec.end(i)
	if err != nil {
		return nil, err
	}
	r.rec.graft(i, eng.Tracer.Root(), phaseName(strategy))
	r.rec.do("httpapi.encode", func() { r.encode(ans.Rows) })
	if r.rec.on {
		r.t.reads++
		r.t.rowsOut += ans.Rows.Len()
		r.t.reformCQs += ans.ReformulationCQs
		if strategy == engine.RefGCov {
			r.t.fragments += len(ans.Cover)
			r.t.viewHits += ans.CachedFragments
			if !ans.CachedPlan {
				r.t.gcovCalls++
				r.t.coversExplored += len(ans.Explored)
				r.probes = append(r.probes, probe{q: q, cover: ans.Cover})
			}
		}
	}
	return ans.Rows, nil
}

// phaseName names the engine's phase spans by the layer doing their
// work: a "plan" that missed the plan cache is GCov's cover search
// (reformulation and fragment signatures included), one that hit is the
// engine's lookup.
func phaseName(s engine.Strategy) func(string, []trace.Attr) string {
	return func(name string, attrs []trace.Attr) string {
		switch name {
		case "plan":
			for _, a := range attrs {
				if a.Key == "cached" && a.Number() == 1 {
					return "engine.plan_cache"
				}
			}
			return "core.gcov"
		case "reformulate":
			return "core.range_reformulate"
		case "eval":
			if s == engine.RefRange {
				return "exec.eval_range"
			}
			return "exec.eval_jucq"
		}
		return "engine." + name
	}
}

// encode renders the response body as /v1/query does: rows sorted,
// decoded and written as indented JSON.
func (r *replica) encode(rows *exec.Relation) {
	d := r.eng.Graph().Dict()
	rows.SortRows()
	n := min(rows.Len(), 10000)
	resp := httpapi.QueryResponse{Columns: rows.Vars, Total: rows.Len(), Truncated: rows.Len() > n}
	resp.Rows = make([][]string, 0, n)
	for i := 0; i < n; i++ {
		row := rows.Row(i)
		out := make([]string, len(row))
		for j, id := range row {
			out[j] = d.Decode(id).String()
		}
		resp.Rows = append(resp.Rows, out)
	}
	r.enc.Reset()
	enc := json.NewEncoder(&r.enc)
	enc.SetIndent("", "  ")
	_ = enc.Encode(resp) // encoding into a buffer cannot fail
}

// runProbes runs what the last request left for outside it, each as its
// own probe root: core.reformulate_jucq for its GCov outcomes and the
// shadow's copy of its update.
func (r *replica) runProbes() error {
	for _, p := range r.probes {
		var err error
		root := r.rec.begin(rootProbe)
		r.rec.do("core.reformulate_jucq", func() {
			_, err = r.eng.Reformulator().ReformulateJUCQ(p.q, p.cover, core.DefaultMaxFragmentCQs)
		})
		r.rec.end(root)
		if err != nil {
			return err
		}
	}
	r.probes = r.probes[:0]
	for _, u := range r.updates {
		if err := r.shadow.apply(r.rec, u); err != nil {
			return err
		}
	}
	r.updates = r.updates[:0]
	return nil
}

// update applies cycle i's update as /v1/update does: parse, delete then
// insert, staging each WAL record right after applying it, then waiting
// for the acknowledgments. It returns the number of triples removed.
func (r *replica) update(gen rwGen, i int) (int, error) {
	_, ins := gen.batch(i)
	del := ""
	if i >= deleteLag {
		_, del = gen.batch(i - deleteLag)
	}
	var (
		dts, its []rdf.Triple
		err      error
		removed  int
		acks     []<-chan error
	)
	fsyncs := r.reg.Counter("wal.fsyncs").Value()
	walBefore := r.reg.Gauge("wal.bytes").Value()
	r.rec.do("ntriples.parse", func() {
		if dts, err = ntriples.ParseString(del); err == nil {
			its, err = ntriples.ParseString(ins)
		}
	})
	if err != nil {
		return 0, err
	}
	if len(dts) > 0 {
		r.rec.do("engine.delete", func() { removed, err = r.eng.DeleteData(dts) })
		if err != nil {
			return 0, err
		}
		r.rec.do("durable.append", func() { acks = append(acks, r.mgr.Stage(durable.Record{Op: durable.OpDelete, Triples: dts})) })
	}
	r.rec.do("engine.insert", func() { err = r.eng.InsertData(its) })
	if err != nil {
		return 0, err
	}
	r.stale = true
	r.updates = append(r.updates, dataUpdate{del: dts, ins: its})
	r.rec.do("durable.append", func() {
		acks = append(acks, r.mgr.Stage(durable.Record{Op: durable.OpInsert, Triples: its}))
		for _, a := range acks {
			if aerr := <-a; aerr != nil && err == nil {
				err = aerr
			}
		}
	})
	if r.rec.on {
		r.t.updates++
		r.t.fsyncs += int(r.reg.Counter("wal.fsyncs").Value() - fsyncs)
		r.t.walBytes += r.reg.Gauge("wal.bytes").Value() - walBefore
		r.t.userBytes += int64(len(ins) + len(del))
	}
	return removed, err
}

// tracedRun is what the in-process replay measured.
type tracedRun struct {
	attempted, failed int
	failures          []string
	spans             []span
	t                 tally
	tracedMs, plainMs []float64 // per-request wall time, spans on and off
	gcCycles          uint32
	gcPauseNs         uint64
	requests          int
}

func (tr *tracedRun) check(what string, got, want rowHash) {
	tr.attempted++
	if got != want {
		tr.failed++
		if len(tr.failures) < 10 {
			tr.failures = append(tr.failures, fmt.Sprintf("traced %s: got %d rows, want %d", what, got.N, want.N))
		}
	}
}

// replayer drives one traced run.
type replayer struct {
	ctx       context.Context
	w         workload
	rec       *recorder
	r         *replica
	out       *tracedRun
	dir       string
	measuring bool // inside the alternating loop: sample request times
}

// request runs fn as one request: a "request" root when traced, and,
// while measuring, a wall-time sample for the overhead comparison.
func (p *replayer) request(fn func() error) error {
	start := time.Now()
	root := p.rec.begin(rootRequest)
	err := fn()
	p.rec.end(root)
	if p.measuring {
		ms := float64(time.Since(start)) / float64(time.Millisecond)
		if p.rec.on {
			p.out.tracedMs = append(p.out.tracedMs, ms)
		} else {
			p.out.plainMs = append(p.out.plainMs, ms)
		}
		p.out.requests++
	}
	return err
}

func (p *replayer) read(rd read, want rowHash) error {
	var rows *exec.Relation
	err := p.request(func() (err error) {
		rows, err = p.r.read(p.ctx, rd, engine.Strategy(p.w.strategy))
		return err
	})
	if err != nil {
		return err
	}
	p.out.check(rd.name, hashRelation(p.r.eng.Graph().Dict(), rows), want)
	return p.r.runProbes()
}

func (p *replayer) cycle(gen rwGen, hashes func(int) rowHash, i int) error {
	var removed int
	if err := p.request(func() (err error) {
		removed, err = p.r.update(gen, i)
		return err
	}); err != nil {
		return err
	}
	want := 0
	if i >= deleteLag {
		want = 4 * batchPersons
	}
	p.out.check(fmt.Sprintf("update %d removed", i), rowHash{N: removed}, rowHash{N: want})
	return p.read(read{name: "RYW", text: rywText}, hashes(i))
}

// runTraced replays the workload in-process for the given seconds,
// alternating spans on and off per unit (a pass, a novel query or a
// read-write cycle) so the overhead compares like with like.
func runTraced(ctx context.Context, w workload, seed int64, orc oracle, seconds float64, outDir string) (*tracedRun, error) {
	rec := &recorder{on: true, epoch: time.Now()}
	dir := filepath.Join(outDir, "traced-data")
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	r, err := boot(rec, w, dir)
	if err != nil {
		return nil, err
	}
	defer func() {
		if r.mgr != nil {
			r.mgr.Close() // error path only: recoverAll closes it on success
		}
	}()
	p := &replayer{ctx: ctx, w: w, rec: rec, r: r, out: &tracedRun{}, dir: dir}
	d := newHTTPLoad(ctx, w, seed, orc, httpOpts{})
	var unit func(n int) error
	switch w.name {
	case "warm-gcov", "warm-range":
		unit = func(int) error {
			for _, rd := range d.pass {
				if err := p.read(rd, orc[rd.key]); err != nil {
					return err
				}
			}
			return nil
		}
	case "novel-gcov":
		unit = func(int) error {
			rd := d.novel.next()
			return p.read(rd, orc[rd.key])
		}
	case "read-write":
		unit = func(n int) error {
			if err := p.cycle(d.rw, d.liveHash, deleteLag+n); err != nil {
				return err
			}
			if (n+1)%checkpointEvery == 0 {
				return p.checkpoint()
			}
			return nil
		}
	}

	// Unmeasured warm-up, as in the HTTP run.
	rec.on = false
	switch w.name {
	case "warm-gcov", "warm-range":
		err = unit(0)
	case "novel-gcov":
		for i := 0; i < novelWarmup && err == nil; i++ {
			rd := d.novel.warm()
			err = p.read(rd, orc[rd.key])
		}
	case "read-write":
		for i := 0; i < deleteLag && err == nil; i++ {
			err = p.cycle(d.rw, d.liveHash, i)
		}
	}
	if err != nil {
		return nil, err
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	p.measuring = true
	n := 0
	for start := time.Now(); time.Since(start).Seconds() < seconds; n++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		rec.on = n%2 == 0
		if err := unit(n); err != nil {
			return nil, err
		}
	}
	p.measuring = false
	runtime.ReadMemStats(&after)
	p.out.gcCycles = after.NumGC - before.NumGC
	p.out.gcPauseNs = after.PauseTotalNs - before.PauseTotalNs
	rec.on = true
	if w.writes {
		if err := p.recoverAll(d, deleteLag+n); err != nil {
			return nil, err
		}
	}
	p.out.spans = rec.spans
	p.out.t = r.t
	return p.out, writeSpans(filepath.Join(outDir, "spans.jsonl"), rec.spans)
}

// checkpoint runs an admin checkpoint under a root of its own, so that
// request time and the layer shares cover updates and reads only. It is
// recorded even on untraced units.
func (p *replayer) checkpoint() error {
	on := p.rec.on
	p.rec.on = true
	var err error
	root := p.rec.begin(rootCheckpoint)
	p.rec.do("durable.checkpoint", func() { err = p.r.mgr.Checkpoint(p.r.eng.Graph()) })
	p.rec.end(root)
	p.rec.on = on
	return err
}

// recoverAll mirrors the end of the HTTP read-write run: a final
// checkpoint (sizing the store against the live graph's N-Triples), a WAL
// tail, then recoveries of the data dir that must answer as before.
func (p *replayer) recoverAll(d *httpLoad, next int) error {
	if err := p.checkpoint(); err != nil {
		return err
	}
	stored, err := dirBytes(p.dir)
	if err != nil {
		return err
	}
	var nt bytes.Buffer
	sw := ntriples.NewWriter(&nt)
	g := p.r.eng.Graph()
	for _, t := range g.AllTriples() {
		if err := sw.WriteTriple(g.Dict().DecodeTriple(t)); err != nil {
			return err
		}
	}
	if err := sw.Flush(); err != nil {
		return err
	}
	p.r.t.storeBytes, p.r.t.liveBytes = stored, int64(nt.Len())
	p.rec.on = false
	for t := 0; t < tailCycles; t++ {
		if err := p.cycle(d.rw, d.liveHash, next+t); err != nil {
			return err
		}
	}
	p.rec.on = true
	err = p.r.mgr.Close()
	p.r.mgr = nil
	if err != nil {
		return err
	}
	want := d.liveHash(next + tailCycles - 1)
	for k := 0; k < recoveries; k++ {
		mgr, err := durable.Open(p.dir, durable.Options{SyncMode: durable.SyncAlways, CheckpointBytes: 256 << 20, Shards: 1, Metrics: p.r.reg})
		if err != nil {
			return err
		}
		root := p.rec.begin(rootRecovery)
		g, replayed, err := p.r.recover(mgr, "")
		p.rec.end(root)
		p.r.t.recoveries++
		p.r.t.replayed += replayed
		if cerr := mgr.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		q, err := query.ParseRuleWithPrefixes(g.Dict(), prefixes, rywText)
		if err != nil {
			return err
		}
		ans, err := engine.New(g).Answer(q, engine.RefGCov)
		if err != nil {
			return err
		}
		p.out.check("recovered RYW", hashRelation(g.Dict(), ans.Rows), want)
	}
	return nil
}

// recoveries is the number of in-process recoveries per traced run.
const recoveries = 3

func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, e fs.DirEntry, err error) error {
		if err != nil || e.IsDir() {
			return err
		}
		fi, err := e.Info()
		if err == nil {
			n += fi.Size()
		}
		return err
	})
	return n, err
}

func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// rollup is the per-layer view of a traced run's spans.
type rollup struct {
	requests  int
	requestNs float64
	layerSelf map[string]float64 // self ns under request roots, by layer
	callNs    map[string]float64 // inclusive ns by span name, all roots
	callReqs  map[string]int     // roots that called each span name
}

func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return "bench" // a root's self time: the replay's own glue
}

func rollUp(spans []span) rollup {
	ru := rollup{layerSelf: map[string]float64{}, callNs: map[string]float64{}, callReqs: map[string]int{}}
	child := make([]float64, len(spans))
	rootName := map[int32]string{}
	for _, s := range spans {
		if s.Parent >= 0 {
			child[s.Parent] += float64(s.End - s.Start)
		} else {
			rootName[s.Req] = s.Name
		}
	}
	seen := map[string]map[int32]bool{}
	for i, s := range spans {
		dur := float64(s.End - s.Start)
		if s.Parent < 0 && s.Name == rootRequest {
			ru.requests++
			ru.requestNs += dur
		}
		if rootName[s.Req] == rootRequest {
			ru.layerSelf[layerOf(s.Name)] += dur - child[i]
		}
		if s.Parent >= 0 {
			ru.callNs[s.Name] += dur
			if seen[s.Name] == nil {
				seen[s.Name] = map[int32]bool{}
			}
			if !seen[s.Name][s.Req] {
				seen[s.Name][s.Req] = true
				ru.callReqs[s.Name]++
			}
		}
	}
	return ru
}

// perCallMs is span name's mean inclusive time per root that calls it, 0
// when nothing called it.
func (ru rollup) perCallMs(name string) float64 {
	return ratio(ru.callNs[name], float64(ru.callReqs[name])) / 1e6
}

// layers are the repository's modules that do work inside the replay's
// requests. graph and saturation work there happens inside engine.insert
// and engine.delete, and view-cache work inside the engine's phases.
var layers = []string{"bench", "query", "engine", "core", "cost", "exec", "httpapi",
	"storage", "stats", "ntriples", "durable"}

// layerMetrics assembles the per-layer metrics of a --trace 1 run: the
// httpapi and plan-cache figures come from the HTTP run's response meta,
// everything else from the traced replay.
func layerMetrics(run *httpRun, tr *tracedRun) map[string]metric {
	ru := rollUp(tr.spans)
	t := tr.t
	m := map[string]metric{}
	for _, name := range []string{
		"lubm.generate", "graph.from_triples", "storage.build", "stats.collect", "cost.model_build",
		"query.parse", "core.gcov", "core.reformulate_jucq", "core.range_reformulate",
		"exec.eval_jucq", "exec.eval_range",
		"ntriples.parse", "graph.add_data", "saturation.maintain", "engine.insert", "engine.delete", "durable.append",
		"durable.checkpoint", "durable.load_graph", "durable.replay",
	} {
		m[name+"_ms"] = metric{ru.perCallMs(name), "ms"}
	}
	m["core.gcov_covers_explored"] = metric{ratio(float64(t.coversExplored), float64(t.gcovCalls)), "count"}
	m["core.reformulation_cqs"] = metric{ratio(float64(t.reformCQs), float64(t.reads)), "count"}
	m["exec.rows_out"] = metric{ratio(float64(t.rowsOut), float64(t.reads)), "count"}
	m["viewcache.hit_ratio"] = metric{ratio(float64(t.viewHits), float64(t.fragments)), "ratio"}
	m["engine.plan_cache_hit_ratio"] = metric{ratio(float64(run.cachedPlans), float64(run.gcovReads)), "ratio"}
	m["httpapi.server_total_ms"] = metric{mean(run.serverTotalMs), "ms"}
	m["httpapi.serialize_ms"] = metric{mean(run.serializeMs), "ms"}
	m["httpapi.outside_ms"] = metric{mean(run.outsideMs), "ms"}
	m["httpapi.response_bytes"] = metric{mean(run.respBytes), "bytes"}
	m["durable.fsyncs_per_update"] = metric{ratio(float64(t.fsyncs), float64(t.updates)), "count"}
	m["durable.wal_bytes_per_user_byte"] = metric{ratio(float64(t.walBytes), float64(t.userBytes)), "ratio"}
	m["durable.store_bytes_per_user_byte"] = metric{ratio(float64(t.storeBytes), float64(t.liveBytes)), "ratio"}
	m["durable.replayed_records"] = metric{ratio(float64(t.replayed), float64(t.recoveries)), "count"}
	m["runtime.gc_cycles"] = metric{ratio(float64(tr.gcCycles), float64(tr.requests)), "count/req"}
	m["runtime.gc_pause_ms"] = metric{ratio(float64(tr.gcPauseNs)/1e6, float64(tr.requests)), "ms/req"}
	m["trace.request_ms"] = metric{ratio(ru.requestNs, float64(ru.requests)) / 1e6, "ms"}
	m["trace.overhead_ratio"] = metric{ratio(mean(tr.tracedMs), mean(tr.plainMs)) - 1, "ratio"}
	for _, l := range layers {
		m["share."+l] = metric{ratio(ru.layerSelf[l], ru.requestNs), "ratio"}
	}
	return m
}
