package bench

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/exec"
	"repro/internal/lubm"
	"repro/internal/query"
	"repro/internal/trace"
)

// E4Result reproduces demo step 3: introspection of one answering run —
// the chosen plan's operator trace, estimated vs. actual cardinalities and
// costs of the (sub)queries, and GCov's explored cover space.
type E4Result struct {
	Query      string
	Explored   []core.Explored
	Fragments  Table // per-fragment estimated vs actual cardinality
	Operators  Table // operator-level trace of the winning JUCQ evaluation
	FinalCover string
}

// e4MaxSpans bounds E4's span tree: Example 1's GCov JUCQ evaluates ~300
// member CQs of a handful of operators each, well inside the bound. E4
// fails rather than report a table built from a truncated tree.
const e4MaxSpans = 1 << 16

// e4JoinMethods names E4's operator rows by the materialized-join span
// they come from.
var e4JoinMethods = map[string]string{"hashjoin": "hash", "cross": "cross", "merge": "merge"}

// E4 introspects Example 1 under GCov.
//
//reflint:ctxbg a batch experiment has no caller to cancel it; the per-strategy budget bounds each run
func E4(cfg Config) (*E4Result, error) {
	cfg = cfg.withDefaults()
	g, err := lubm.NewGraph(cfg.Profile, cfg.Seed)
	if err != nil {
		return nil, err
	}
	univ := lubm.PickExampleOneUniversity(g)
	if univ == "" {
		univ = "http://www.University0.edu"
	}
	q, err := lubm.ExampleOne(g.Dict(), univ)
	if err != nil {
		return nil, err
	}
	e := engine.New(g)
	res := &E4Result{Query: query.FormatCQ(g.Dict(), q)}

	gres, err := core.GCov(e.Reformulator(), e.CostModel(), q, core.GCovOptions{})
	if err != nil {
		return nil, err
	}
	res.Explored = gres.Explored
	res.FinalCover = gres.Cover.String()

	// Estimated vs actual per fragment.
	res.Fragments.Header = []string{"fragment", "#CQs", "est. card", "actual card", "est. cost"}
	ctx := context.Background()
	ev := exec.New(e.Store(), e.Stats())
	m := e.CostModel()
	for _, f := range gres.JUCQ.Fragments {
		est := m.UCQ(f.UCQ)
		actual, err := ev.EvalUCQ(ctx, f.UCQ)
		if err != nil {
			return nil, err
		}
		res.Fragments.Add(query.Cover{f.AtomIndexes}.String(), len(f.UCQ.CQs),
			est.Card, actual.Len(), est.Cost)
	}

	// Operator trace of the full JUCQ evaluation, read from the span tree
	// production EXPLAIN ANALYZE records.
	tr := trace.New(e4MaxSpans)
	root := tr.StartSpan("eval")
	defer root.End()
	tev := exec.New(e.Store(), e.Stats())
	tev.Span = root
	if _, err := tev.EvalJUCQ(ctx, gres.JUCQ); err != nil {
		return nil, err
	}
	if n := tr.Dropped(); n > 0 {
		return nil, fmt.Errorf("bench: e4 operator trace dropped %d spans (bound %d)", n, e4MaxSpans)
	}
	res.Operators.Header = []string{"operator", "left rows", "right rows", "out rows"}
	root.Visit(func(name string, _ int, _ time.Duration, attrs []trace.Attr) {
		// Only the materialized joins; the per-CQ index probes inside
		// fragment UCQs would drown the table.
		method, ok := e4JoinMethods[name]
		if !ok {
			return
		}
		on, left, right, out := "", 0, 0, 0
		for _, a := range attrs {
			switch a.Key {
			case "on":
				on = a.String()
			case "left_rows":
				left = int(a.Number())
			case "right_rows":
				right = int(a.Number())
			case "rows":
				out = int(a.Number())
			}
		}
		res.Operators.Add(method+" on "+on, left, right, out)
	})
	return res, nil
}

// String renders the report.
func (r *E4Result) String() string {
	var sb strings.Builder
	sb.WriteString("E4 — plan and cost introspection (demo step 3)\n")
	fmt.Fprintf(&sb, "query: %s\n", r.Query)
	fmt.Fprintf(&sb, "\nGCov explored cover space (%d covers):\n", len(r.Explored))
	sb.WriteString(core.FormatExplored(r.Explored))
	fmt.Fprintf(&sb, "final cover: %s\n", r.FinalCover)
	sb.WriteString("\nper-fragment estimated vs actual:\n")
	sb.WriteString(indent(r.Fragments.String()))
	sb.WriteString("\noperator trace (fragment joins):\n")
	sb.WriteString(indent(r.Operators.String()))
	return sb.String()
}
