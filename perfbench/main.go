// Command perfbench is the repository benchmark. It drives the deployed
// read/write stack from outside — frame → internal/client → HTTP over
// loopback → internal/server → internal/sparql → internal/store — under
// one of three seeded workloads, checks every answer, and prints each
// metric by name with its unit. The last line of standard output is one
// JSON object: {"correct", "attempted", "failed", "metrics"}.
//
//	sh perfbench/run.sh --workload extract --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones, measured with no
// tracing hooks active. With --trace 1 the run measures an untraced half
// and a traced half of --seconds; the metrics are the per-layer ones from
// the traced half plus the tracing overhead, and the spans are written to
// the scratch directory. See README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"

	"rdfframes/internal/sparql"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options are the command-line settings.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	scale    string // "bench"; the self-test runs "small"
	scratch  string
}

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	var o options
	var trace int
	fl.StringVar(&o.workload, "workload", "extract", "workload: extract, serve or update")
	fl.Int64Var(&o.seed, "seed", 1, "input seed (1 is the committed-numbers seed, 1009 the held-out seed)")
	fl.Float64Var(&o.seconds, "seconds", 20, "measured seconds")
	fl.IntVar(&trace, "trace", 0, "1 = per-layer traced run, 0 = end-to-end run")
	fl.StringVar(&o.scratch, "scratch", ".bench_build", "directory for the WAL and span files")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	o.trace = trace == 1
	o.scale = "bench"
	res, err := execute(o, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	for _, e := range res.errors {
		fmt.Fprintln(stderr, "perfbench: failed op:", e)
	}
	if err := res.print(stdout); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// result is everything one run reports.
type result struct {
	env       map[string]any
	attempted int
	failed    int
	errors    []string // the first few failures
	metrics   []metric // the metrics the final JSON line carries
	extra     []metric // reported on the lines before it only
	measured  *phase   // the end-to-end phase, for the per-frame lines
	spans     []span   // traced spans, for the self-time table
}

func (r *result) check(what string, err error) {
	r.attempted++
	if err != nil {
		r.failed++
		if len(r.errors) < 10 {
			r.errors = append(r.errors, fmt.Sprintf("%s: %v", what, err))
		}
	}
}

func (r *result) ops(ops []opResult) {
	for _, op := range ops {
		r.check(op.kind+" "+op.name, op.err)
	}
}

// workloads are the stack configurations. extract runs with no caches, as
// internal/bench.Env does. serve and update run the plan cache and the
// result cache at the budget rdfframes-server deploys by default.
var workloads = map[string]stackConfig{
	"extract": {},
	"serve":   {cacheRows: sparql.DefaultResultCacheRows},
	"update":  {cacheRows: sparql.DefaultResultCacheRows},
}

func execute(o options, progress io.Writer) (*result, error) {
	cfg, ok := workloads[o.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.seconds <= 0 {
		return nil, errors.New("--seconds must be positive")
	}
	if err := os.MkdirAll(o.scratch, 0o755); err != nil {
		return nil, err
	}
	in, err := makeInput(o.seed, o.scale)
	if err != nil {
		return nil, err
	}
	fs, err := frames()
	if err != nil {
		return nil, err
	}
	var walPath string
	if o.workload == "update" {
		walPath = filepath.Join(o.scratch, fmt.Sprintf("perfbench-%d.wal", os.Getpid()))
		cfg.walPath = walPath
		defer os.Remove(walPath)
	}
	res := &result{env: environment(o, in, cfg)}
	fmt.Fprintf(progress, "# setting up %s (seed %d, %d triples)\n", o.workload, o.seed, in.triples())
	st, setup, err := setUp(in, cfg)
	if err != nil {
		return nil, err
	}
	defer st.close()

	// Reference answers, on an engine of its own with no caches; not part
	// of setup time.
	r := newRunner(o.seed, st, fs)
	checks, err := computeReferences(r.ref, fs)
	if err != nil {
		return nil, err
	}
	for i, f := range fs {
		res.check("reference "+f.id, checks[i])
	}
	loop := r.extract
	switch o.workload {
	case "serve":
		loop = r.serve
		res.ops(r.warmServe())
	case "update":
		loop = r.update
		ops, err := r.warmUpdate()
		if err != nil {
			return nil, err
		}
		res.ops(ops)
	}

	if !o.trace {
		ph := r.measure(false, loop, o.seconds)
		res.ops(ph.ops)
		res.metrics = endToEnd(o.workload, &ph, setup)
		res.measured = &ph
		if o.workload == "update" {
			res.extra = writeLatency(&ph)
		}
	} else {
		plain := r.measure(false, loop, o.seconds/2)
		traced := r.measure(true, loop, o.seconds/2)
		res.ops(plain.ops)
		res.ops(traced.ops)
		res.metrics = perLayer(&traced, setup, in)
		a, b := endToEnd(o.workload, &plain, setup), endToEnd(o.workload, &traced, setup)
		res.metrics = append(res.metrics,
			metric{"trace.overhead_read_p50_ms", value(b, "read_p50_ms") - value(a, "read_p50_ms"), "ms", len(traced.latencies("read"))},
			metric{"trace.overhead_ops_per_s", value(b, "ops_per_s") - value(a, "ops_per_s"), "op/s", traced.count("read")},
		)
		for i := range a {
			if !strings.HasPrefix(a[i].name, "setup") {
				res.extra = append(res.extra,
					metric{"untraced." + a[i].name, a[i].value, a[i].unit, a[i].n},
					metric{"traced." + b[i].name, b[i].value, b[i].unit, b[i].n})
			}
		}
		if o.workload == "update" {
			res.extra = append(res.extra, writeLayers(&traced)...)
		}
		res.spans = traced.spans
		spansPath := filepath.Join(o.scratch, fmt.Sprintf("spans-%s-%d.jsonl", o.workload, o.seed))
		if err := writeSpans(spansPath, res.env, traced.spans); err != nil {
			return nil, err
		}
		fmt.Fprintf(progress, "# spans: %s (%d)\n", spansPath, len(traced.spans))
	}
	if o.workload == "update" {
		res.check("recovery", r.checkRecovery(in, walPath))
	}
	return res, nil
}

func value(ms []metric, name string) float64 {
	for _, m := range ms {
		if m.name == name {
			return m.value
		}
	}
	return 0
}

// environment records the machine and inputs every output carries.
func environment(o options, in *input, cfg stackConfig) map[string]any {
	flush := "none (no WAL)"
	if o.workload == "update" {
		flush = "fsync per batch"
	}
	return map[string]any{
		"workload":          o.workload,
		"seed":              o.seed,
		"scale":             o.scale,
		"seconds":           o.seconds,
		"trace":             o.trace,
		"nproc":             runtime.NumCPU(),
		"gomaxprocs":        runtime.GOMAXPROCS(0),
		"go":                runtime.Version(),
		"graphs":            in.graphs,
		"result_cache_rows": cfg.cacheRows,
		"wal_flush":         flush,
		"clients":           1,
	}
}

// print writes the report lines and, last, the result object.
func (r *result) print(w io.Writer) error {
	env, err := json.Marshal(r.env)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "# env %s\n", env)
	for _, m := range append(append([]metric(nil), r.metrics...), r.extra...) {
		fmt.Fprintf(w, "%-30s %14.4f %-9s n=%d\n", m.name, m.value, m.unit, m.n)
	}
	rate := 0.0
	if r.attempted > 0 {
		rate = float64(r.failed) / float64(r.attempted)
	}
	fmt.Fprintf(w, "%-30s %14.4f %-9s n=%d\n", "error_rate", rate, "ratio", r.attempted)
	if r.measured != nil {
		printFrames(w, r.measured)
	}
	if r.spans != nil {
		printSelfTimes(w, r.spans)
	}
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, map[string]mv{}}
	for _, m := range r.metrics {
		out.Metrics[m.name] = mv{m.value, m.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
