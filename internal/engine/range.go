package engine

import (
	"context"
	"strings"
	"time"

	"repro/internal/cost"
	"repro/internal/exec"
	"repro/internal/metrics"
	"repro/internal/query"
	"repro/internal/trace"
)

// The ref-range strategy: reformulate the CQ into a small union of range
// CQs (one per combination of per-atom interval alternatives — a handful,
// not the thousands of atomic CQs ref-ucq enumerates) and evaluate it with
// interval-constrained scans plus hierarchy expansions.

func (e *Engine) answerRange(ctx context.Context, q query.CQ, sp *trace.Span) (*Answer, error) {
	prepStart := time.Now()
	var rsp *trace.Span
	if sp != nil {
		rsp = sp.Child("reformulate")
		defer rsp.End()
	}
	ru := e.RangeReformulator().Reformulate(q)
	// Range evaluation itself needs no statistics (exact range counts come
	// from the store's indexes), so the stats collection and cost model are
	// only built when something consumes the estimate: the admission gate
	// or a trace. Cold ref-range queries then skip the stats scan entirely.
	var est cost.Estimate
	var m *cost.Model
	if e.Admission != nil || sp != nil {
		m = e.CostModel()
		est = m.RangeUCQ(ru)
	}
	if rsp != nil {
		rsp.SetInt("cqs", int64(len(ru.CQs)))
		rsp.SetInt("range_atoms", int64(ru.RangeAtoms()))
		rsp.SetInt("expansions", int64(ru.Expansions()))
		rsp.SetFloat("est_cost", est.Cost)
		rsp.End()
	}
	prep := time.Since(prepStart)
	if m := e.Metrics; m != nil {
		m.Counter("rangeref.queries").Inc()
		m.Histogram("rangeref.cqs", metrics.DefaultSizeBuckets...).
			Observe(float64(len(ru.CQs)))
		m.Counter("rangeref.range_atoms").Add(int64(ru.RangeAtoms()))
		m.Counter("rangeref.expansions").Add(int64(ru.Expansions()))
	}
	tkt, err := e.admit(ctx, sp, est.Cost)
	if err != nil {
		return nil, err
	}
	defer tkt.Release()
	ev := e.evaluator(e.Source(), nil)
	ev.MaxParallel = tkt.Weight()
	es := startEval(sp, ev, m)
	defer es.End()
	start := time.Now()
	rows, err := ev.EvalRangeUCQ(ctx, ru)
	if err != nil {
		endEval(es, nil)
		return nil, err
	}
	endEval(es, rows)
	ans := &Answer{
		Strategy: RefRange, Rows: rows, ReformulationCQs: len(ru.CQs),
		PrepTime: prep, EvalTime: time.Since(start), EstimatedCost: est.Cost,
	}
	stampAdmission(ans, tkt)
	return ans, nil
}

// planRange explains the ref-range plan: one "cq" node per range CQ with
// its estimated cost and cardinality. Range reformulations are small, so
// no elision is needed.
//
//reflint:nospanend plan spans are a rendered tree, never timed; Plan.Tree omits durations
func (e *Engine) planRange(q query.CQ) (*Plan, error) {
	ru := e.RangeReformulator().Reformulate(q)
	p, root := e.newPlan(q, RefRange)
	m := e.CostModel()
	u := root.Child("union")
	u.SetInt("cqs", int64(len(ru.CQs)))
	u.SetInt("range_atoms", int64(ru.RangeAtoms()))
	u.SetInt("expansions", int64(ru.Expansions()))
	parent := u
	if n := e.Shards(); n > 1 && exec.CoPartitionedRangeUCQ(ru) {
		// Against a sharded source a fully co-partitioned range union
		// evaluates shard-locally; show the executor's scatter node.
		sc := u.Child("scatter")
		sc.SetInt("n", int64(n))
		sc.SetStr("op", "rangeucq")
		parent = sc
	}
	for _, cq := range ru.CQs {
		ce := m.RangeCQ(cq)
		parts := make([]string, len(cq.Atoms))
		for i, a := range cq.Atoms {
			parts[i] = query.FormatRangeAtom(a)
		}
		csp := parent.Child("cq")
		csp.SetStr("q", strings.Join(parts, ", "))
		csp.SetFloat("est_rows", ce.Card)
		csp.SetFloat("est_cost", ce.Cost)
	}
	est := m.RangeUCQ(ru)
	p.ReformulationCQs = len(ru.CQs)
	p.EstimatedCost, p.EstimatedRows = est.Cost, est.Card
	return p, nil
}
