package exec_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/dict"
	"repro/internal/exec"
	"repro/internal/metrics"
	"repro/internal/query"
	"repro/internal/rdf"
	"repro/internal/shard"
	"repro/internal/stats"
	"repro/internal/storage"
	"repro/internal/trace"
)

// Scatter over a hash-partitioned store is the executor's only fan-out.
// These tests run budgets, cancellation and row caps through runScatter
// on its two paths: a union of co-partitioned CQs (every atom shares one
// subject variable, so each shard evaluates the whole group locally —
// evalUCQScatter) and CQs whose atoms have different subjects (each atom
// scatters as a scan, the join runs centrally — scatterScan). They live
// in package exec_test because internal/shard imports exec.

const scatterShards = 4

func sv(n string) query.Arg   { return query.Variable(n) }
func sc(id dict.ID) query.Arg { return query.Constant(id) }

// encode converts raw ID triples and returns them with a dictionary that
// decodes every ID they use, so traced evaluations can render atoms.
func encode(ts [][3]dict.ID) (*dict.Dict, []dict.Triple) {
	out := make([]dict.Triple, len(ts))
	maxID := dict.ID(0)
	for i, t := range ts {
		out[i] = dict.Triple{S: t[0], P: t[1], O: t[2]}
		for _, id := range t {
			if id > maxID {
				maxID = id
			}
		}
	}
	d := dict.New()
	for dict.ID(d.Len()) < maxID {
		d.Encode(rdf.NewIRI(fmt.Sprintf("urn:t%d", d.Len()+1)))
	}
	return d, out
}

// sharded returns a 4-shard evaluator over ts, recording into reg.
func sharded(ts [][3]dict.ID, reg *metrics.Registry) *exec.Evaluator {
	d, enc := encode(ts)
	st := shard.Build(d, enc, scatterShards)
	e := exec.New(st, nil)
	e.MaxParallel = scatterShards
	e.Metrics = reg
	return e
}

// single returns an evaluator over one unpartitioned store.
func single(ts [][3]dict.ID) *exec.Evaluator {
	st := storage.Build(encode(ts))
	return exec.New(st, stats.Collect(st))
}

// scatterData holds both shapes' inputs. Subjects 1..subjects (at most 9)
// each carry k fresh objects on predicates 10 and 12, so the
// co-partitioned body {x 10 y, x 12 w} joins k×k rows per subject on the
// subject's own shard; predicate 11 has n fresh subjects, so
// {x 10 y, z 11 w} is a central cross product of two scattered scans.
func scatterData(subjects, k, n int) [][3]dict.ID {
	var ts [][3]dict.ID
	next := dict.ID(12)
	fresh := func() dict.ID { next++; return next }
	for s := 1; s <= subjects; s++ {
		for i := 0; i < k; i++ {
			ts = append(ts,
				[3]dict.ID{dict.ID(s), 10, fresh()},
				[3]dict.ID{dict.ID(s), 12, fresh()})
		}
	}
	for i := 0; i < n; i++ {
		ts = append(ts, [3]dict.ID{fresh(), 11, fresh()})
	}
	return ts
}

func coCQ() query.CQ {
	return query.CQ{
		Head:  []query.Arg{sv("x"), sv("y"), sv("w")},
		Atoms: []query.Atom{{S: sv("x"), P: sc(10), O: sv("y")}, {S: sv("x"), P: sc(12), O: sv("w")}},
	}
}

func crossCQ() query.CQ {
	return query.CQ{
		Head:  []query.Arg{sv("y"), sv("z")},
		Atoms: []query.Atom{{S: sv("x"), P: sc(10), O: sv("y")}, {S: sv("z"), P: sc(11), O: sv("w")}},
	}
}

// onY projects a CQ on y alone: the body's work stays, the fragment's
// result shrinks to one column, so a join of such fragments stays cheap.
func onY(cq query.CQ) query.CQ {
	cq.Head = []query.Arg{sv("y")}
	return cq
}

func union(cq query.CQ, n int) query.UCQ {
	u := query.UCQ{HeadNames: query.HeadVarNames(cq)}
	for i := 0; i < n; i++ {
		u.CQs = append(u.CQs, cq)
	}
	return u
}

// scatterShape is one of the two scatter paths, with the counter that
// proves the path ran.
type scatterShape struct {
	name    string
	u       query.UCQ
	counter string
}

func scatterShapes() []scatterShape {
	return []scatterShape{
		{"co-partitioned", union(coCQ(), 8), "shard.local_cqs"},
		{"central-join", union(crossCQ(), 8), "shard.scan"},
	}
}

// budgetData is sized so an unbudgeted union runs for tens of
// milliseconds (hundreds under -race), long enough that a restarted
// deadline would show, short enough to keep each test well under 1 s.
func budgetData() [][3]dict.ID { return scatterData(8, 25, 25) }

// baselineUCQ times one unbudgeted sharded evaluation and checks that it
// went through the shape's scatter path.
func baselineUCQ(t *testing.T, ts [][3]dict.ID, s scatterShape) time.Duration {
	t.Helper()
	reg := metrics.NewRegistry()
	e := sharded(ts, reg)
	start := time.Now()
	if _, err := e.EvalUCQ(context.Background(), s.u); err != nil {
		t.Fatalf("unbudgeted baseline failed: %v", err)
	}
	took := time.Since(start)
	if reg.Snapshot().Counters[s.counter] == 0 {
		t.Fatalf("baseline did not take the %s scatter path (%s = 0)", s.name, s.counter)
	}
	return took
}

// Scatter workers share the union's one deadline: a per-shard or per-CQ
// restart of Budget.Timeout would let the union run to completion.
func TestParallelUCQSharedTimeout(t *testing.T) {
	ts := budgetData()
	for _, s := range scatterShapes() {
		t.Run(s.name, func(t *testing.T) {
			baseline := baselineUCQ(t, ts, s)
			e := sharded(ts, nil)
			e.Budget.Timeout = time.Millisecond
			start := time.Now()
			_, err := e.EvalUCQ(context.Background(), s.u)
			elapsed := time.Since(start)
			if !errors.Is(err, exec.ErrBudgetExceeded) {
				t.Fatalf("want ErrBudgetExceeded, got %v", err)
			}
			if elapsed > baseline/2+100*time.Millisecond {
				t.Fatalf("budgeted eval took %v (baseline %v): deadline looks restarted per shard or CQ", elapsed, baseline)
			}
		})
	}
}

// A JUCQ's fragments share one deadline when their scans scatter.
func TestScatterJUCQSharedTimeout(t *testing.T) {
	ts := budgetData()
	frag := func(cq query.CQ) query.Fragment {
		return query.Fragment{UCQ: union(cq, 8)}
	}
	j := query.JUCQ{HeadNames: []string{"y"}, Fragments: []query.Fragment{frag(onY(coCQ())), frag(onY(crossCQ()))}}
	base := sharded(ts, nil)
	start := time.Now()
	if _, err := base.EvalJUCQ(context.Background(), j); err != nil {
		t.Fatalf("unbudgeted baseline failed: %v", err)
	}
	baseline := time.Since(start)

	e := sharded(ts, nil)
	e.Budget.Timeout = time.Millisecond
	start = time.Now()
	_, err := e.EvalJUCQ(context.Background(), j)
	elapsed := time.Since(start)
	if !errors.Is(err, exec.ErrBudgetExceeded) {
		t.Fatalf("want ErrBudgetExceeded, got %v", err)
	}
	if elapsed > baseline/2+100*time.Millisecond {
		t.Fatalf("budgeted JUCQ took %v (baseline %v): deadline looks restarted per fragment or shard", elapsed, baseline)
	}
}

// Canceling the caller's context mid-scatter stops every shard worker at
// its next checkpoint.
func TestScatterCancelMidEval(t *testing.T) {
	ts := budgetData()
	for _, s := range scatterShapes() {
		t.Run(s.name, func(t *testing.T) {
			baseline := baselineUCQ(t, ts, s)
			e := sharded(ts, nil)
			ctx, cancel := context.WithCancel(context.Background())
			timer := time.AfterFunc(time.Millisecond, cancel)
			defer timer.Stop()
			start := time.Now()
			_, err := e.EvalUCQ(ctx, s.u)
			elapsed := time.Since(start)
			if !errors.Is(err, exec.ErrCanceled) {
				t.Fatalf("want ErrCanceled, got %v", err)
			}
			if elapsed > baseline/2+100*time.Millisecond {
				t.Fatalf("canceled eval took %v (baseline %v): cancellation not seen mid-scatter", elapsed, baseline)
			}
		})
	}
}

// Budget.MaxRows caps intermediate relations inside each shard worker and
// at the central gather and join.
func TestScatterMaxRows(t *testing.T) {
	ts := scatterData(8, 20, 40)
	for _, s := range scatterShapes() {
		t.Run(s.name, func(t *testing.T) {
			full, err := sharded(ts, nil).EvalUCQ(context.Background(), s.u)
			if err != nil {
				t.Fatal(err)
			}
			e := sharded(ts, nil)
			e.Budget.MaxRows = full.Len() / 2
			if _, err := e.EvalUCQ(context.Background(), s.u); !errors.Is(err, exec.ErrBudgetExceeded) {
				t.Fatalf("MaxRows %d of %d: want ErrBudgetExceeded, got %v", e.Budget.MaxRows, full.Len(), err)
			}
			e.Budget.MaxRows = full.Len() * 16
			if _, err := e.EvalUCQ(context.Background(), s.u); err != nil {
				t.Fatalf("MaxRows above the result size: %v", err)
			}
		})
	}
}

// Budgeted scatter evaluation must be race-free: shard workers share one
// guard (ctx + absolute deadline + atomic tally), one metrics registry and
// one span tree. Run under -race.
func TestParallelBudgetedEvalRace(t *testing.T) {
	ts := scatterData(8, 8, 16)
	want := map[string]int{}
	for _, s := range scatterShapes() {
		r, err := single(ts).EvalUCQ(context.Background(), s.u)
		if err != nil {
			t.Fatal(err)
		}
		want[s.name] = r.Len()
	}
	reg := metrics.NewRegistry()
	j := query.JUCQ{HeadNames: []string{"y"}, Fragments: []query.Fragment{
		{UCQ: union(onY(coCQ()), 3)}, {UCQ: union(onY(crossCQ()), 3)},
	}}
	for i := 0; i < 4; i++ {
		for _, s := range scatterShapes() {
			e := sharded(ts, reg)
			e.Budget.Timeout = 30 * time.Second
			e.Span = trace.New(0).StartSpan("eval")
			r, err := e.EvalUCQ(context.Background(), s.u)
			if err != nil {
				t.Fatal(err)
			}
			if r.Len() != want[s.name] {
				t.Fatalf("%s: want %d rows, got %d", s.name, want[s.name], r.Len())
			}
		}
		e := sharded(ts, reg)
		e.Budget.Timeout = 30 * time.Second
		if _, err := e.EvalJUCQ(context.Background(), j); err != nil {
			t.Fatal(err)
		}
	}
}

// randomChainStore is a small random graph over predicates 200..203.
func randomChainStore(seed int64, n int) [][3]dict.ID {
	r := rand.New(rand.NewSource(seed))
	ts := make([][3]dict.ID, 0, n)
	for i := 0; i < n; i++ {
		ts = append(ts, [3]dict.ID{dict.ID(1 + r.Intn(40)), dict.ID(200 + r.Intn(4)), dict.ID(1 + r.Intn(40))})
	}
	return ts
}

// A union scattered over shards — co-partitioned members shard-locally,
// chain members through scattered scans — returns exactly the rows of the
// serial single-store evaluation.
func TestParallelUCQMatchesSerial(t *testing.T) {
	ts := randomChainStore(7, 500)
	var cqs []query.CQ
	for p := dict.ID(200); p < 204; p++ {
		for q := dict.ID(200); q < 204; q++ {
			chain := query.CQ{
				Head:  []query.Arg{sv("x"), sv("z")},
				Atoms: []query.Atom{{S: sv("x"), P: sc(p), O: sv("y")}, {S: sv("y"), P: sc(q), O: sv("z")}},
			}
			star := query.CQ{
				Head:  []query.Arg{sv("x"), sv("z")},
				Atoms: []query.Atom{{S: sv("x"), P: sc(p), O: sv("y")}, {S: sv("x"), P: sc(q), O: sv("z")}},
			}
			cqs = append(cqs, chain, star)
		}
	}
	u := query.UCQ{HeadNames: []string{"x", "z"}, CQs: cqs}
	want, err := single(ts).EvalUCQ(context.Background(), u)
	if err != nil {
		t.Fatal(err)
	}
	got, err := sharded(ts, nil).EvalUCQ(context.Background(), u)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatalf("scattered %d rows != serial %d rows", got.Len(), want.Len())
	}
}

// A JUCQ whose fragments scatter joins to the serial single-store result.
func TestEvalJUCQParallelMatchesSerial(t *testing.T) {
	ts := randomChainStore(11, 400)
	frag := func(p dict.ID, a, b string) query.Fragment {
		return query.Fragment{UCQ: query.UCQ{HeadNames: []string{a, b}, CQs: []query.CQ{
			{Head: []query.Arg{sv(a), sv(b)}, Atoms: []query.Atom{{S: sv(a), P: sc(p), O: sv(b)}}},
		}}}
	}
	j := query.JUCQ{
		HeadNames: []string{"x", "z"},
		Fragments: []query.Fragment{frag(200, "x", "y"), frag(201, "y", "z"), frag(202, "x", "w")},
	}
	want, err := single(ts).EvalJUCQ(context.Background(), j)
	if err != nil {
		t.Fatal(err)
	}
	got, err := sharded(ts, nil).EvalJUCQ(context.Background(), j)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatalf("scattered JUCQ %d rows != serial %d rows", got.Len(), want.Len())
	}
}

// When a union hands off to the co-partitioned scatter, its union span
// still records the result size, as the unsharded path does.
func TestScatterUnionSpanRows(t *testing.T) {
	ts := scatterData(8, 5, 10)
	u := union(coCQ(), 3)
	e := sharded(ts, nil)
	tr := trace.New(0)
	e.Span = tr.StartSpan("eval")
	r, err := e.EvalUCQ(context.Background(), u)
	if err != nil {
		t.Fatal(err)
	}
	var unionRows, scatters int
	found := false
	e.Span.Visit(func(name string, _ int, _ time.Duration, attrs []trace.Attr) {
		switch name {
		case "scatter":
			scatters++
		case "union":
			for _, a := range attrs {
				if a.Key == "rows" {
					found = true
					unionRows = int(a.Number())
				}
			}
		}
	})
	if scatters == 0 {
		t.Fatal("sharded union recorded no scatter span")
	}
	if !found || unionRows != r.Len() {
		t.Fatalf("union span rows=%d (set %v), want %d", unionRows, found, r.Len())
	}
}
