package sparql

import (
	"context"
	"fmt"
	"strings"
	"time"

	"rdfframes/internal/rdf"
	"rdfframes/internal/sparql/plan"
)

// ExplainReport is the result of explaining a query: the optimized plan
// tree with estimated and actual cardinalities, plus planning and execution
// timings. It serializes to JSON (the server's ?explain=1 response) and
// renders as text (the EXPLAIN keyword and benchrunner -explain).
type ExplainReport struct {
	// Query is the explained query text (without the EXPLAIN keyword).
	Query string `json:"query"`
	// StatsEpoch is the statistics-catalog epoch the plan was optimized
	// against; StoreVersion the store mutation epoch at execution.
	StatsEpoch   uint64 `json:"stats_epoch"`
	StoreVersion uint64 `json:"store_version"`
	// PlanSeconds / ExecSeconds time plan construction and evaluation.
	PlanSeconds float64 `json:"plan_seconds"`
	ExecSeconds float64 `json:"exec_seconds"`
	// Rows is the executed query's final row count.
	Rows int `json:"rows"`
	// Plan is the operator tree with estimated vs actual cardinalities.
	Plan *plan.Node `json:"plan"`
}

// Text renders the report for humans: a header plus the indented plan tree.
// Timings are deliberately excluded from PlanText (and golden tests) — they
// are noise; Text appends them for interactive use.
func (r *ExplainReport) Text() string {
	var sb strings.Builder
	sb.WriteString(r.PlanText())
	fmt.Fprintf(&sb, "planned in %.6fs, executed in %.6fs\n", r.PlanSeconds, r.ExecSeconds)
	return sb.String()
}

// PlanText renders only the timing-free part of the report: the row count
// and the plan tree. Stable across runs on identical data — epoch counters
// and timings are deliberately excluded — which is what the golden-plan
// tests assert.
func (r *ExplainReport) PlanText() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%d rows\n", r.Rows)
	sb.WriteString(r.Plan.Format())
	return sb.String()
}

// Results renders the report as a one-variable solution sequence (?plan,
// one row per text line), which is how an "EXPLAIN SELECT ..." query
// answers through every existing surface — Engine.Do, the HTTP server,
// and the paginating client.
func (r *ExplainReport) Results() *Results {
	lines := strings.Split(strings.TrimRight(r.Text(), "\n"), "\n")
	rows := make([][]rdf.Term, len(lines))
	for i, line := range lines {
		rows[i] = []rdf.Term{rdf.NewLiteral(line)}
	}
	return &Results{Vars: []string{"plan"}, Rows: rows}
}

// stripExplainKeyword removes a leading EXPLAIN keyword, matching the
// parser's case-insensitive acceptance.
func stripExplainKeyword(src string) string {
	s := strings.TrimSpace(src)
	const kw = "EXPLAIN"
	if len(s) > len(kw) && strings.EqualFold(s[:len(kw)], kw) && (s[len(kw)] == ' ' || s[len(kw)] == '\t' || s[len(kw)] == '\r' || s[len(kw)] == '\n') {
		return strings.TrimSpace(s[len(kw):])
	}
	return s
}

// IsExplainQuery reports whether src starts with the EXPLAIN keyword, for
// callers (like the paginating client) that must not rewrite such queries.
func IsExplainQuery(src string) bool {
	return stripExplainKeyword(src) != strings.TrimSpace(src)
}

// Explain parses, optimizes, and executes src, returning the plan tree with
// estimated and actual cardinalities. The leading EXPLAIN keyword is
// optional. Explain always runs the optimizer (even on engines with
// DisableOptimizer set — the point is to inspect what the planner would
// do) and never touches the result cache.
func (e *Engine) Explain(src string) (*ExplainReport, error) {
	return e.ExplainContext(context.Background(), src)
}

// ExplainContext is Explain bounded by ctx; see Do.
func (e *Engine) ExplainContext(ctx context.Context, src string) (*ExplainReport, error) {
	q, err := Parse(src)
	if err != nil {
		return nil, err
	}
	return e.explainParsed(ctx, src, q)
}

// explainParsed explains an already-parsed query. A fresh tracked plan is
// built per call: tracked plans record actual cardinalities in their nodes
// and therefore must never be shared with concurrent evaluations.
func (e *Engine) explainParsed(ctx context.Context, src string, q *Query) (*ExplainReport, error) {
	if q.Explain {
		// Evaluate the underlying query; the flag only routes the output.
		plain := *q
		plain.Explain = false
		q = &plain
	}
	planStart := time.Now()
	qp := e.buildPlan(q, true)
	planDur := time.Since(planStart)

	execStart := time.Now()
	e.Store.RLock()
	version := e.Store.Version()
	res, err := e.evalLocked(ctx, q, qp)
	e.Store.RUnlock()
	if err != nil {
		return nil, err
	}
	return &ExplainReport{
		Query:        stripExplainKeyword(src),
		StatsEpoch:   qp.epoch,
		StoreVersion: version,
		PlanSeconds:  planDur.Seconds(),
		ExecSeconds:  time.Since(execStart).Seconds(),
		Rows:         len(res.Rows),
		Plan:         qp.root,
	}, nil
}
