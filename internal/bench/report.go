package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"rdfframes/internal/dataframe"
)

// FigureRow is one task's measurements across approaches.
type FigureRow struct {
	Task         string
	Name         string
	Measurements map[Approach]Measurement
}

// RunFigure3 reproduces Figure 3 (effectiveness of the design decisions):
// the three case studies under naive query generation, navigation +
// dataframes, and RDFFrames. bestOf reruns each measurement that many
// times and keeps the fastest (see runTasks).
func RunFigure3(env *Env, timeout time.Duration, bestOf int) []FigureRow {
	return runTasks(env, CaseStudies(), []Approach{Naive, NavPandas, RDFFrames}, timeout, bestOf)
}

// RunFigure4 reproduces Figure 4 (comparison against baselines): the three
// case studies under scan + dataframes, per-pattern SPARQL + dataframes,
// expert SPARQL, and RDFFrames.
func RunFigure4(env *Env, timeout time.Duration, bestOf int) []FigureRow {
	return runTasks(env, CaseStudies(), []Approach{ScanPandas, SPARQLPandas, Expert, RDFFrames}, timeout, bestOf)
}

// RunFigure5 reproduces Figure 5: the 15 synthetic queries under naive
// generation and RDFFrames, reported as ratios to expert SPARQL.
func RunFigure5(env *Env, timeout time.Duration, bestOf int) []FigureRow {
	return runTasks(env, Synthetic(), []Approach{Expert, Naive, RDFFrames}, timeout, bestOf)
}

// runTasks measures every task under every approach. Each (task,
// approach) pair is measured bestOf times and the fastest successful run
// is kept: the bench box is a single shared core, so a best-of-N rejects
// one-off scheduler noise the same way the storage benchmarks do.
func runTasks(env *Env, tasks []*Task, approaches []Approach, timeout time.Duration, bestOf int) []FigureRow {
	if bestOf < 1 {
		bestOf = 1
	}
	rows := make([]FigureRow, 0, len(tasks))
	for _, task := range tasks {
		row := FigureRow{Task: task.ID, Name: task.Name, Measurements: map[Approach]Measurement{}}
		for _, a := range measurementOrder(approaches) {
			best := task.Measure(env, a, timeout)
			for i := 1; i < bestOf; i++ {
				m := task.Measure(env, a, timeout)
				if betterMeasurement(m, best) {
					best = m
				}
			}
			row.Measurements[a] = best
		}
		rows = append(rows, row)
	}
	return rows
}

// betterMeasurement prefers any success over any failure, then the
// shorter duration.
func betterMeasurement(m, cur Measurement) bool {
	if m.Err != nil {
		return false
	}
	if cur.Err != nil {
		return true
	}
	return m.Duration < cur.Duration
}

// measurementOrder measures the cheap engine-bounded approaches before the
// client-side baselines: an abandoned baseline run keeps burning CPU until
// its deadline check fires, which would otherwise pollute the timings of
// the approaches measured after it.
func measurementOrder(approaches []Approach) []Approach {
	rank := map[Approach]int{RDFFrames: 0, Expert: 1, Naive: 2, NavPandas: 3, SPARQLPandas: 4, ScanPandas: 5}
	out := append([]Approach(nil), approaches...)
	sort.Slice(out, func(i, j int) bool { return rank[out[i]] < rank[out[j]] })
	return out
}

// FormatFigure renders measurements as an aligned text table with one
// column per approach (seconds; ERR/TIMEOUT on failure).
func FormatFigure(title string, rows []FigureRow, approaches []Approach) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s\n", title)
	fmt.Fprintf(&sb, "%-6s %-44s", "task", "description")
	for _, a := range approaches {
		fmt.Fprintf(&sb, " %22s", a)
	}
	sb.WriteString("   rows\n")
	for _, row := range rows {
		fmt.Fprintf(&sb, "%-6s %-44s", row.Task, truncate(row.Name, 44))
		rowsOut := 0
		for _, a := range approaches {
			m := row.Measurements[a]
			switch {
			case m.Err != nil && strings.Contains(m.Err.Error(), "timeout"):
				fmt.Fprintf(&sb, " %22s", "TIMEOUT")
			case m.Err != nil:
				fmt.Fprintf(&sb, " %22s", "ERR")
			default:
				fmt.Fprintf(&sb, " %20.4fs", m.Duration.Seconds())
				rowsOut = m.Rows
			}
		}
		fmt.Fprintf(&sb, " %6d\n", rowsOut)
	}
	return sb.String()
}

// FormatFigure5 renders the synthetic workload as the paper does: expert
// seconds plus the naive and RDFFrames ratios to expert, sorted by the
// naive ratio ascending.
func FormatFigure5(rows []FigureRow) string {
	type line struct {
		task                string
		expert              float64
		naiveRatio, rfRatio float64
		naiveTimeout        bool
	}
	lines := make([]line, 0, len(rows))
	for _, row := range rows {
		e := row.Measurements[Expert]
		n := row.Measurements[Naive]
		r := row.Measurements[RDFFrames]
		l := line{task: row.Task, expert: e.Duration.Seconds()}
		if n.Err != nil {
			l.naiveTimeout = true
			l.naiveRatio = -1
		} else if e.Duration > 0 {
			l.naiveRatio = n.Duration.Seconds() / e.Duration.Seconds()
		}
		if r.Err == nil && e.Duration > 0 {
			l.rfRatio = r.Duration.Seconds() / e.Duration.Seconds()
		}
		lines = append(lines, l)
	}
	sort.Slice(lines, func(i, j int) bool {
		a, b := lines[i], lines[j]
		ar, br := a.naiveRatio, b.naiveRatio
		if a.naiveTimeout {
			ar = 1e18
		}
		if b.naiveTimeout {
			br = 1e18
		}
		return ar < br
	})
	var sb strings.Builder
	sb.WriteString("Figure 5: synthetic workload — ratio to Expert SPARQL (sorted by naive ratio)\n")
	fmt.Fprintf(&sb, "%-6s %12s %14s %16s\n", "query", "expert (s)", "naive/expert", "rdfframes/expert")
	for _, l := range lines {
		naive := fmt.Sprintf("%.2fx", l.naiveRatio)
		if l.naiveTimeout {
			naive = "TIMEOUT"
		}
		fmt.Fprintf(&sb, "%-6s %12.4f %14s %15.2fx\n", l.task, l.expert, naive, l.rfRatio)
	}
	return sb.String()
}

// JSONMeasurement is one timed run in the machine-readable report.
type JSONMeasurement struct {
	Figure   string  `json:"figure"`
	Task     string  `json:"task"`
	Approach string  `json:"approach"`
	Seconds  float64 `json:"seconds"`
	Rows     int     `json:"rows"`
	Error    string  `json:"error,omitempty"`
}

// JSONReport is the machine-readable benchmark record benchrunner emits
// (BENCH_sparql.json), for tracking engine performance across changes.
type JSONReport struct {
	Scale string `json:"scale"`
	// BestOf records how many runs each figure measurement is the best of
	// (the benchrunner -bestof setting; 1 = single runs).
	BestOf       int               `json:"best_of,omitempty"`
	Measurements []JSONMeasurement `json:"measurements"`
	// Storage holds the storage-lifecycle numbers (data load and snapshot
	// reopen timings) when benchrunner measured them.
	Storage *StorageReport `json:"storage,omitempty"`
	// Serving holds the repeated-query serving-layer numbers (cold vs warm
	// throughput and cache behaviour) when benchrunner measured them.
	Serving *ServingReport `json:"serving,omitempty"`
	// Ablations holds the engine A-vs-B numbers (one report per row of
	// Ablations: timings and byte-identity per Figure-5 query) when
	// benchrunner measured them.
	Ablations []*AblationReport `json:"ablations,omitempty"`
	// Traffic holds the multi-client load numbers (admission control,
	// shedding, stampede protection) when benchrunner measured them.
	Traffic *TrafficReport `json:"traffic,omitempty"`
	// Mutations holds the write-path numbers (SPARQL UPDATE batches, WAL
	// durability, and crash-recovery byte-identity) when
	// benchrunner measured them.
	Mutations *MutationsReport `json:"mutations,omitempty"`
	// Features holds the feature-pipeline numbers (property-path queries,
	// topology-feature extraction, and the streaming export's bounded-
	// memory assertion) when benchrunner measured them.
	Features *FeaturesReport `json:"features,omitempty"`
	// Metrics holds per-figure counter deltas scraped off the benchmark
	// environment's registry — cache hits, evaluations, HTTP outcomes —
	// attributing engine work to the workload that caused it.
	Metrics []FigureMetrics `json:"metrics,omitempty"`
}

// MetricsSample is a flat series-name -> value snapshot of a registry's
// cumulative series (counters and histogram _sum/_count).
type MetricsSample map[string]float64

// FigureMetrics is the movement of the environment's cumulative metrics
// across one figure run: after minus before, zero-delta series dropped.
type FigureMetrics struct {
	Figure string        `json:"figure"`
	Delta  MetricsSample `json:"delta"`
}

// AddMetricsDelta records the counter movement between two snapshots under
// the figure's name. Series that did not move are dropped; an entirely
// still registry adds nothing.
func (r *JSONReport) AddMetricsDelta(figure string, before, after MetricsSample) {
	delta := MetricsSample{}
	for name, v := range after {
		if d := v - before[name]; d != 0 {
			delta[name] = d
		}
	}
	if len(delta) == 0 {
		return
	}
	r.Metrics = append(r.Metrics, FigureMetrics{Figure: figure, Delta: delta})
}

// Add appends every measurement of the figure's rows to the report.
func (r *JSONReport) Add(figure string, rows []FigureRow) {
	for _, row := range rows {
		for _, a := range measurementOrder(approachesOf(row)) {
			m := row.Measurements[a]
			jm := JSONMeasurement{
				Figure:   figure,
				Task:     m.Task,
				Approach: string(m.Approach),
				Seconds:  m.Duration.Seconds(),
				Rows:     m.Rows,
			}
			if m.Err != nil {
				jm.Error = m.Err.Error()
			}
			r.Measurements = append(r.Measurements, jm)
		}
	}
}

func approachesOf(row FigureRow) []Approach {
	out := make([]Approach, 0, len(row.Measurements))
	for a := range row.Measurements {
		out = append(out, a)
	}
	return out
}

// Write emits the report as indented JSON.
func (r *JSONReport) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// VerifyTask checks that every approach produces the same bag of rows over
// the RDFFrames result's columns (the paper's "results of all alternatives
// are identical" check). Approaches that legitimately expose extra
// intermediate columns are projected first.
func VerifyTask(env *Env, task *Task, approaches []Approach) error {
	ref, err := task.Run(env, RDFFrames)
	if err != nil {
		return fmt.Errorf("bench %s: reference run failed: %w", task.ID, err)
	}
	for _, a := range approaches {
		if a == RDFFrames {
			continue
		}
		got, err := task.Run(env, a)
		if err != nil {
			return fmt.Errorf("bench %s: %s failed: %w", task.ID, a, err)
		}
		aligned, err := got.Select(ref.Columns()...)
		if err != nil {
			return fmt.Errorf("bench %s: %s result lacks columns %v (has %v)", task.ID, a, ref.Columns(), got.Columns())
		}
		if !dataframe.MultisetEqual(ref, aligned) {
			return fmt.Errorf("bench %s: %s returned %d rows, RDFFrames %d rows (bags differ)",
				task.ID, a, aligned.Len(), ref.Len())
		}
	}
	return nil
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n-3] + "..."
}
