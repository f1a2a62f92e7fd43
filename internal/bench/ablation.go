package bench

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"strings"
	"time"

	"rdfframes/internal/sparql"
)

// The ablation figure runs the Figure-5 suite directly on the engine (no
// HTTP) under two configurations of one engine toggle and compares them
// query by query: result byte-identity — the toggle's correctness contract
// — plus best-of-N evaluation time.

// Ablation is one engine toggle: a baseline and a candidate configuration
// over the same store.
type Ablation struct {
	Name string
	// Baseline and Candidate label the two configurations.
	Baseline, Candidate string
	// ConfigureBaseline and ConfigureCandidate set the toggle on an engine
	// that starts at Parallelism 1, so every row but the parallel one
	// isolates its toggle from the morsel pool. Nil keeps the defaults.
	ConfigureBaseline, ConfigureCandidate func(*sparql.Engine)
	// Applied reports whether the toggle changes how the candidate runs
	// query; nil means it always does.
	Applied func(cand *sparql.Engine, query string) (bool, error)
}

// Ablations is the figure's table. workers is the parallel row's
// candidate pool width.
func Ablations(workers int) []Ablation {
	return []Ablation{
		{
			Name: "planner", Baseline: "heuristic", Candidate: "optimized",
			ConfigureBaseline: func(e *sparql.Engine) { e.DisableOptimizer = true },
		},
		{
			Name: "parallel", Baseline: "serial", Candidate: "parallel",
			ConfigureBaseline:  func(e *sparql.Engine) { e.Parallelism = 1 },
			ConfigureCandidate: func(e *sparql.Engine) { e.Parallelism = workers },
		},
		{
			Name: "wcoj", Baseline: "binary", Candidate: "wcoj",
			ConfigureBaseline: func(e *sparql.Engine) { e.DisableWCOJ = true },
			Applied:           wcojChosen,
		},
	}
}

// wcojChosen reports whether the cost model puts a worst-case-optimal
// join in query's plan; when it does not, both engines run the same
// binary pipeline.
func wcojChosen(eng *sparql.Engine, query string) (bool, error) {
	exp, err := eng.Explain(query)
	if err != nil {
		return false, err
	}
	return strings.Contains(exp.PlanText(), "wcoj "), nil
}

// AblationQuery is one query measured under both configurations.
type AblationQuery struct {
	Task string `json:"task"`
	Rows int    `json:"rows"`
	// Applied is false when the toggle leaves this query's execution
	// unchanged; both timings then measure the same pipeline.
	Applied          bool    `json:"applied"`
	BaselineSeconds  float64 `json:"baseline_seconds"`
	CandidateSeconds float64 `json:"candidate_seconds"`
	// Speedup is BaselineSeconds / CandidateSeconds.
	Speedup float64 `json:"speedup"`
	// ByteIdentical records that the candidate's SPARQL JSON was
	// byte-identical to the baseline's.
	ByteIdentical bool `json:"byte_identical"`
	// Seeks and Backtracks are the candidate's WCOJ iterator-seek and
	// dead-end counts over one evaluation of the query.
	Seeks      uint64 `json:"seeks,omitempty"`
	Backtracks uint64 `json:"backtracks,omitempty"`
}

// AblationReport is one row of the ablation table measured over the
// Figure-5 suite.
type AblationReport struct {
	Name      string `json:"name"`
	Baseline  string `json:"baseline"`
	Candidate string `json:"candidate"`
	// Workers is the candidate's Parallelism; GOMAXPROCS records how many
	// CPUs Go could schedule it on, which bounds any parallel speedup.
	Workers    int    `json:"workers"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	StatsEpoch uint64 `json:"stats_epoch"`
	BestOf     int    `json:"best_of"`
	// AppliedQueries counts the queries the toggle applied to; the suite
	// sums and their ratio cover only those, since the others run the
	// same pipeline twice and would dilute the comparison with noise.
	AppliedQueries        int     `json:"applied_queries"`
	BaselineSuiteSeconds  float64 `json:"baseline_suite_seconds"`
	CandidateSuiteSeconds float64 `json:"candidate_suite_seconds"`
	Speedup               float64 `json:"speedup"`

	Queries []AblationQuery `json:"queries"`
}

// MeasureAblations measures every row of Ablations(workers). workers
// follows the engine's Parallelism semantics (<= 0 resolves to
// GOMAXPROCS); a resolved count below 2 is an error rather than a silently
// different setting, since the parallel row compares the pool against the
// serial path.
func MeasureAblations(env *Env, workers, bestOf int, timeout time.Duration) ([]*AblationReport, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers < 2 {
		return nil, fmt.Errorf("bench ablation: needs >= 2 workers to compare against serial, got %d (use -parallel)", workers)
	}
	var reps []*AblationReport
	for _, a := range Ablations(workers) {
		rep, err := measureAblation(env, a, bestOf, timeout)
		if err != nil {
			return nil, err
		}
		reps = append(reps, rep)
	}
	return reps, nil
}

func measureAblation(env *Env, a Ablation, bestOf int, timeout time.Duration) (*AblationReport, error) {
	if bestOf < 1 {
		bestOf = 1
	}
	base := newAblationEngine(env, timeout, 1, a.ConfigureBaseline)
	cand := newAblationEngine(env, timeout, 1, a.ConfigureCandidate)
	rep := &AblationReport{
		Name: a.Name, Baseline: a.Baseline, Candidate: a.Candidate,
		Workers: cand.Parallelism, GOMAXPROCS: runtime.GOMAXPROCS(0),
		StatsEpoch: env.Store.StatsEpoch(), BestOf: bestOf,
	}
	for _, task := range Synthetic() {
		query, err := task.Frame(env).ToSPARQL()
		if err != nil {
			return nil, fmt.Errorf("bench %s %s: %w", a.Name, task.ID, err)
		}
		q, err := compareQuery(base, cand, task.ID, query, bestOf)
		if err != nil {
			return nil, fmt.Errorf("bench %s %s: %w", a.Name, task.ID, err)
		}
		if a.Applied != nil {
			if q.Applied, err = a.Applied(cand, query); err != nil {
				return nil, fmt.Errorf("bench %s %s: %w", a.Name, task.ID, err)
			}
		}
		if q.Applied {
			rep.AppliedQueries++
			rep.BaselineSuiteSeconds += q.BaselineSeconds
			rep.CandidateSuiteSeconds += q.CandidateSeconds
		}
		rep.Queries = append(rep.Queries, q)
	}
	if rep.CandidateSuiteSeconds > 0 {
		rep.Speedup = rep.BaselineSuiteSeconds / rep.CandidateSuiteSeconds
	}
	return rep, nil
}

// newAblationEngine returns an engine over env's store at the given
// Parallelism, then applies configure (when non-nil).
func newAblationEngine(env *Env, timeout time.Duration, parallelism int, configure func(*sparql.Engine)) *sparql.Engine {
	eng := sparql.NewEngine(env.Store)
	eng.SetTimeout(timeout)
	eng.Parallelism = parallelism
	if configure != nil {
		configure(eng)
	}
	return eng
}

// compareQuery evaluates query once on each engine, checking the two
// SPARQL JSON bodies byte for byte and recording the candidate's WCOJ
// counters, then times each engine best-of-bestOf. The result is marked
// applied; rows whose toggle can be a no-op overwrite that.
func compareQuery(base, cand *sparql.Engine, task, query string, bestOf int) (AblationQuery, error) {
	want, err := evalJSON(base, query)
	if err != nil {
		return AblationQuery{}, fmt.Errorf("baseline: %w", err)
	}
	_, seeks0, backs0, _ := cand.WCOJStats()
	got, err := evalJSON(cand, query)
	if err != nil {
		return AblationQuery{}, fmt.Errorf("candidate: %w", err)
	}
	_, seeks1, backs1, _ := cand.WCOJStats()
	q := AblationQuery{
		Task: task, Rows: want.Rows, Applied: true,
		ByteIdentical: bytes.Equal(want.Body, got.Body),
		Seeks:         seeks1 - seeks0, Backtracks: backs1 - backs0,
	}
	if q.BaselineSeconds, err = timeQuery(base, query, bestOf); err != nil {
		return AblationQuery{}, fmt.Errorf("baseline timing: %w", err)
	}
	if q.CandidateSeconds, err = timeQuery(cand, query, bestOf); err != nil {
		return AblationQuery{}, fmt.Errorf("candidate timing: %w", err)
	}
	if q.CandidateSeconds > 0 {
		q.Speedup = q.BaselineSeconds / q.CandidateSeconds
	}
	return q, nil
}

// evalJSON evaluates query on eng and returns the response carrying its
// SPARQL JSON body.
func evalJSON(eng *sparql.Engine, query string) (*sparql.Response, error) {
	return eng.Do(context.Background(), sparql.Request{Query: query, JSON: true})
}

// timeQuery is the best-of-rounds evaluation time of query on eng.
func timeQuery(eng *sparql.Engine, query string, rounds int) (float64, error) {
	return timeBestSeconds(rounds, func() error {
		_, err := eng.Do(context.Background(), sparql.Request{Query: query})
		return err
	})
}

// FormatAblation renders one ablation report as a text table.
func FormatAblation(rep *AblationReport) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Ablation %s: Figure-5 suite, %s vs %s (workers %d, GOMAXPROCS=%d, stats epoch %d)\n",
		rep.Name, rep.Baseline, rep.Candidate, rep.Workers, rep.GOMAXPROCS, rep.StatsEpoch)
	sb.WriteString(formatAblationQueries("query", rep.Baseline, rep.Candidate, rep.Queries))
	fmt.Fprintf(&sb, "applied subset (%d queries): %.4fs %s -> %.4fs %s (%.2fx, best of %d)\n",
		rep.AppliedQueries, rep.BaselineSuiteSeconds, rep.Baseline,
		rep.CandidateSuiteSeconds, rep.Candidate, rep.Speedup, rep.BestOf)
	return sb.String()
}

// formatAblationQueries renders per-query A/B rows as an aligned table
// whose first column, headed taskHeader, names the query.
func formatAblationQueries(taskHeader, baseline, candidate string, qs []AblationQuery) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-6s %8s %7s %14s %14s %10s %6s %8s %10s\n", taskHeader, "rows", "applied",
		baseline+" (s)", candidate+" (s)", "speedup", "same", "seeks", "backtracks")
	for _, q := range qs {
		applied, same := "yes", "yes"
		if !q.Applied {
			applied = "-"
		}
		if !q.ByteIdentical {
			same = "NO"
		}
		fmt.Fprintf(&sb, "%-6s %8d %7s %14.6f %14.6f %9.2fx %6s %8d %10d\n", q.Task, q.Rows, applied,
			q.BaselineSeconds, q.CandidateSeconds, q.Speedup, same, q.Seeks, q.Backtracks)
	}
	return sb.String()
}
