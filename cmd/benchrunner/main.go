// Command benchrunner regenerates the paper's evaluation figures on the
// synthetic datasets and prints paper-style result tables:
//
//	Figure 3 — design decisions: naive generation vs navigation+dataframes
//	           vs RDFFrames on the three case studies,
//	Figure 4 — RDFFrames vs rdflib-style/SPARQL+dataframes/expert SPARQL,
//	Figure 5 — naive and RDFFrames ratios to expert SPARQL on Q1..Q15.
//
// Usage:
//
//	benchrunner                 # all figures, small scale
//	benchrunner -scale bench -fig 5 -timeout 60s
//	benchrunner -fig 5,storage,serving,parallel,planner -out BENCH_sparql.json
//	benchrunner -bestof 3       # keep the best of 3 runs per measurement
//	benchrunner -parallel 4     # intra-query morsel workers (1 = serial engine)
//	benchrunner -snapshot data.snap -fig 5   # reopen dataset from snapshot
//	benchrunner -data ./data -fig 5          # load dbpedia/dblp/yago .nt files
//	benchrunner -verify         # also verify result equality across approaches
//	benchrunner -digest out.txt # print per-query result digests and exit
//	benchrunner -explain        # print optimized EXPLAIN plans and exit
//	benchrunner -fig traffic -slowlog slow.jsonl -slowlog-threshold 50ms
//
// -fig serving runs the repeated-query serving workload: every Figure-5
// query issued over HTTP cold (no cache) and warm (plan + result caches),
// plus a full paginated client materialization, recording QPS and cache
// hit/miss counters.
//
// -fig parallel runs the morsel-parallelism workload: every Figure-5 query
// evaluated serially (Parallelism 1) and with -parallel workers, recording
// timings and result byte-identity.
//
// -fig planner runs the query-planner workload: every Figure-5 query
// evaluated with the greedy probe-memoized heuristic (DisableOptimizer)
// and with the cost-based planner, recording timings and result
// byte-identity.
//
// -fig traffic runs the multi-client load workload: an admission-controlled
// caching endpoint driven by a Zipfian Figure-5 mix through a closed-loop
// concurrency ramp and an open-loop overload stage, recording p50/p95/p99
// latencies, shed rates by reason, and the stampede-protection check
// (N concurrent cold requests, exactly one evaluation).
//
// -fig features runs the feature-pipeline workload: property-path queries
// (sequence and transitive closure) evaluated serially and with -parallel
// workers with the result byte-identity check, store-side topology-feature
// extraction over the actor node set, and the streaming CSV export with its
// bounded peak-buffer assertion.
//
// -fig mutations runs the write-path workload: batched SPARQL UPDATE
// requests through the engine with a WAL (fsync per batch), inserts then
// deletes, then a simulated crash — the mutated store is discarded and
// rebuilt from the pre-mutation snapshot plus a WAL replay — recording
// insert/delete/recover timings and whether every
// Figure-5 query answers byte-identically on the recovered store.
//
// -digest evaluates the Figure-5 suite and writes one "task sha256" line
// per query (no timings). CI runs it twice — GOMAXPROCS=1 -parallel 1
// versus the parallel default — and diffs the files, so any parallel-eval
// nondeterminism fails the build.
package main

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"
	"time"

	"rdfframes/internal/bench"
	"rdfframes/internal/datagen"
	"rdfframes/internal/obs"
	"rdfframes/internal/snapshot"
	"rdfframes/internal/store"
)

// servingWarmRequests is how many warm repeats of each query the serving
// workload averages over; enough to swamp per-request jitter without
// making the suite slow.
const servingWarmRequests = 30

// Traffic workload shapes per scale: stage duration, closed-loop client
// ramp, and stampede width. Small keeps the CI smoke fast; bench sustains
// each stage long enough for stable percentiles.
var (
	trafficSmallRamp = []int{1, 8, 32}
	trafficBenchRamp = []int{1, 8, 32, 128}
)

const (
	trafficSmallStage    = 200 * time.Millisecond
	trafficBenchStage    = time.Second
	trafficStampedeWidth = 16
)

func main() {
	var (
		scaleFlag = flag.String("scale", "small", `dataset scale: "small" or "bench"`)
		figFlag   = flag.String("fig", "3,4,5", `comma-separated figures to run ("3", "4", "5", "storage", "serving", "parallel", "planner", "traffic", "wcoj", "mutations", "features")`)
		timeout   = flag.Duration("timeout", 2*time.Minute, "per-query timeout (the paper used 30 minutes)")
		bestOf    = flag.Int("bestof", 1, "rerun each measured phase N times and keep the best (use >=3 when regenerating committed numbers)")
		verify    = flag.Bool("verify", false, "verify all approaches return identical results first")
		out       = flag.String("out", "", "also write measurements as JSON to this file (e.g. BENCH_sparql.json)")
		snapPath  = flag.String("snapshot", "", "load the dataset from this snapshot file instead of generating it")
		dataDir   = flag.String("data", "", "load dbpedia.nt/dblp.nt/yago.nt from this directory instead of generating")
		parallel  = flag.Int("parallel", 4, "intra-query morsel workers for the engine and the parallel figure (0 = GOMAXPROCS, 1 = serial)")
		digest    = flag.String("digest", "", "write per-query Figure-5 result digests to this file and exit (for determinism checks)")
		explain   = flag.Bool("explain", false, "print the optimized EXPLAIN plan of every Figure-5 query and exit")
		slowPath  = flag.String("slowlog", "", "arm a slow-query log on the traffic figure's endpoint, appending JSON lines to this file (- = stderr, empty = off)")
		slowThr   = flag.Duration("slowlog-threshold", 100*time.Millisecond, "latency at or above which a traffic-figure query lands in -slowlog")
		noWCOJ    = flag.Bool("no-wcoj", false, "disable the worst-case-optimal join operator on the main engine (ablation; the wcoj figure builds its own engines)")
	)
	flag.Parse()

	scale := bench.ScaleSmall
	if *scaleFlag == "bench" {
		scale = bench.ScaleBench
	} else if *scaleFlag != "small" {
		log.Fatalf("unknown scale %q", *scaleFlag)
	}

	env, scaleName, err := buildEnv(scale, *scaleFlag, *snapPath, *dataDir)
	if err != nil {
		log.Fatal(err)
	}
	defer env.Close()
	env.Engine.Parallelism = *parallel
	env.Engine.DisableWCOJ = *noWCOJ

	if *digest != "" {
		if err := writeDigest(env, *digest); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", *digest)
		return
	}
	if *explain {
		if err := printExplains(env); err != nil {
			log.Fatal(err)
		}
		return
	}
	for _, uri := range []string{datagen.DBpediaURI, datagen.DBLPURI, datagen.YAGOURI} {
		n := 0
		if g := env.Store.Graph(uri); g != nil {
			n = g.Len()
		}
		fmt.Fprintf(os.Stderr, "  <%s>: %d triples\n", uri, n)
	}

	if *verify {
		fmt.Fprintln(os.Stderr, "verifying result equality across approaches...")
		for _, task := range bench.CaseStudies() {
			approaches := []bench.Approach{bench.Naive, bench.Expert, bench.NavPandas, bench.SPARQLPandas, bench.ScanPandas}
			if err := bench.VerifyTask(env, task, approaches); err != nil {
				log.Fatal(err)
			}
		}
		for _, task := range bench.Synthetic() {
			if err := bench.VerifyTask(env, task, []bench.Approach{bench.Naive, bench.Expert}); err != nil {
				log.Fatal(err)
			}
		}
		fmt.Fprintln(os.Stderr, "all approaches agree on all tasks")
	}

	slowLog, slowClose, err := openSlowLog(*slowPath, *slowThr)
	if err != nil {
		log.Fatal(err)
	}
	defer slowClose()

	report := &bench.JSONReport{Scale: scaleName, BestOf: *bestOf}
	for _, fig := range strings.Split(*figFlag, ",") {
		// Snapshot the environment registry around every figure so the
		// report attributes counter movement (cache hits, evaluations, HTTP
		// outcomes) to the workload that caused it. Workloads that build
		// their own endpoint leave the environment's counters still; their
		// delta is empty and the report omits it.
		metricsBefore := env.SnapshotMetrics()
		switch strings.TrimSpace(fig) {
		case "storage":
			fmt.Fprintln(os.Stderr, "measuring storage lifecycle (parse vs snapshot reopen)...")
			rep, err := bench.MeasureStorage(env, "")
			if err != nil {
				log.Fatal(err)
			}
			report.Storage = rep
			fmt.Println(bench.FormatStorage(rep))
		case "serving":
			fmt.Fprintln(os.Stderr, "measuring serving layer (repeated queries, cold vs warm cache)...")
			rep, err := bench.MeasureServing(env, servingWarmRequests, *bestOf, *timeout)
			if err != nil {
				log.Fatal(err)
			}
			report.Serving = rep
			fmt.Println(bench.FormatServing(rep))
		case "parallel":
			fmt.Fprintln(os.Stderr, "measuring parallel execution (serial vs morsel workers)...")
			rep, err := bench.MeasureParallel(env, *parallel, *bestOf, *timeout)
			if err != nil {
				log.Fatal(err)
			}
			report.Parallel = rep
			fmt.Println(bench.FormatParallel(rep))
		case "planner":
			fmt.Fprintln(os.Stderr, "measuring query planner (greedy heuristic vs cost-based ordering)...")
			rep, err := bench.MeasurePlanner(env, *bestOf, *timeout)
			if err != nil {
				log.Fatal(err)
			}
			report.Planner = rep
			fmt.Println(bench.FormatPlanner(rep))
		case "traffic":
			fmt.Fprintln(os.Stderr, "measuring serving under load (admission control, shedding, stampedes)...")
			stage, ramp := trafficSmallStage, trafficSmallRamp
			if scale == bench.ScaleBench {
				stage, ramp = trafficBenchStage, trafficBenchRamp
			}
			rep, err := bench.MeasureTraffic(env, stage, ramp, trafficStampedeWidth, *timeout, slowLog)
			if err != nil {
				log.Fatal(err)
			}
			report.Traffic = rep
			fmt.Println(bench.FormatTraffic(rep))
		case "wcoj":
			fmt.Fprintln(os.Stderr, "measuring worst-case-optimal joins (binary pipeline vs leapfrog triejoin)...")
			rep, err := bench.MeasureWCOJ(env, *bestOf, *timeout)
			if err != nil {
				log.Fatal(err)
			}
			report.Wcoj = rep
			fmt.Println(bench.FormatWCOJ(rep))
		case "features":
			fmt.Fprintln(os.Stderr, "measuring feature pipeline (property paths, topology features, streaming export)...")
			rep, err := bench.MeasureFeatures(env, *parallel, *bestOf, *timeout)
			if err != nil {
				log.Fatal(err)
			}
			report.Features = rep
			fmt.Println(bench.FormatFeatures(rep))
		case "mutations":
			fmt.Fprintln(os.Stderr, "measuring mutations (SPARQL UPDATE, WAL durability, crash recovery)...")
			rep, err := bench.MeasureMutations(env, "")
			if err != nil {
				log.Fatal(err)
			}
			report.Mutations = rep
			fmt.Println(bench.FormatMutations(rep))
		case "3":
			rows := bench.RunFigure3(env, *timeout, *bestOf)
			report.Add("3", rows)
			fmt.Println(bench.FormatFigure(
				"Figure 3: evaluating the design of RDFFrames (case studies, seconds)",
				rows, []bench.Approach{bench.Naive, bench.NavPandas, bench.RDFFrames}))
		case "4":
			rows := bench.RunFigure4(env, *timeout, *bestOf)
			report.Add("4", rows)
			fmt.Println(bench.FormatFigure(
				"Figure 4: comparing RDFFrames to alternative baselines (case studies, seconds)",
				rows, []bench.Approach{bench.ScanPandas, bench.SPARQLPandas, bench.Expert, bench.RDFFrames}))
		case "5":
			rows := bench.RunFigure5(env, *timeout, *bestOf)
			report.Add("5", rows)
			fmt.Println(bench.FormatFigure5(rows))
		default:
			log.Fatalf("unknown figure %q", fig)
		}
		report.AddMetricsDelta(strings.TrimSpace(fig), metricsBefore, env.SnapshotMetrics())
	}
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			log.Fatal(err)
		}
		if err := report.Write(f); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", *out)
	}
}

// writeDigest evaluates every Figure-5 query directly on the environment's
// engine (at its configured Parallelism) and writes "task sha256-of-json"
// lines. The dataset generators are seeded and the evaluator is
// deterministic, so two runs over the same scale must produce identical
// files — the property the CI determinism job diffs across GOMAXPROCS and
// -parallel settings.
func writeDigest(env *bench.Env, path string) error {
	var sb strings.Builder
	for _, task := range bench.Synthetic() {
		query, err := task.Frame(env).ToSPARQL()
		if err != nil {
			return fmt.Errorf("digest %s: %w", task.ID, err)
		}
		res, err := env.Engine.Query(query)
		if err != nil {
			return fmt.Errorf("digest %s: %w", task.ID, err)
		}
		body, err := res.MarshalJSON()
		if err != nil {
			return fmt.Errorf("digest %s: %w", task.ID, err)
		}
		fmt.Fprintf(&sb, "%s %x %d\n", task.ID, sha256.Sum256(body), len(res.Rows))
	}
	return os.WriteFile(path, []byte(sb.String()), 0o644)
}

// printExplains prints the optimized EXPLAIN plan (estimated vs actual
// cardinalities) of every Figure-5 query.
func printExplains(env *bench.Env) error {
	for _, task := range bench.Synthetic() {
		query, err := task.Frame(env).ToSPARQL()
		if err != nil {
			return fmt.Errorf("explain %s: %w", task.ID, err)
		}
		rep, err := env.Engine.Explain(query)
		if err != nil {
			return fmt.Errorf("explain %s: %w", task.ID, err)
		}
		fmt.Printf("== %s (%s)\n%s\n", task.ID, task.Name, rep.Text())
	}
	return nil
}

// openSlowLog resolves the -slowlog flag: empty disables, "-" writes to
// stderr, anything else appends JSON lines to the named file. The returned
// closer is a no-op unless a file was opened.
func openSlowLog(path string, threshold time.Duration) (*obs.SlowLog, func(), error) {
	if path == "" {
		return nil, func() {}, nil
	}
	if path == "-" {
		return obs.NewSlowLog(os.Stderr, threshold), func() {}, nil
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("opening slow-query log %s: %w", path, err)
	}
	return obs.NewSlowLog(f, threshold), func() { f.Close() }, nil
}

// buildEnv sets up the benchmark environment from one of three sources: a
// binary snapshot, a directory of N-Triples dumps, or freshly generated
// synthetic data. The returned name labels the dataset in the JSON report.
func buildEnv(scale bench.Scale, scaleName, snapPath, dataDir string) (*bench.Env, string, error) {
	switch {
	case snapPath != "":
		fmt.Fprintf(os.Stderr, "reopening dataset from snapshot %s...\n", snapPath)
		start := time.Now()
		st, err := snapshot.ReadFile(snapPath)
		if err != nil {
			return nil, "", err
		}
		fmt.Fprintf(os.Stderr, "  %d triples in %v\n", st.Len(), time.Since(start))
		env, err := bench.NewEnvFromStore(st)
		return env, "snapshot:" + filepath.Base(snapPath), err
	case dataDir != "":
		fmt.Fprintf(os.Stderr, "loading N-Triples dumps from %s...\n", dataDir)
		st := store.New()
		// Fixed load order: graph and dictionary-id assignment must be
		// deterministic so repeated runs (and snapshots written from this
		// store) are reproducible.
		for _, g := range []struct{ name, uri string }{
			{"dbpedia", datagen.DBpediaURI}, {"dblp", datagen.DBLPURI}, {"yago", datagen.YAGOURI},
		} {
			name, uri := g.name, g.uri
			path := filepath.Join(dataDir, name+".nt")
			f, err := os.Open(path)
			if os.IsNotExist(err) {
				continue
			}
			if err != nil {
				return nil, "", err
			}
			n, err := st.LoadNTriplesParallel(uri, f, 0)
			f.Close()
			if err != nil {
				return nil, "", fmt.Errorf("loading %s: %w", path, err)
			}
			fmt.Fprintf(os.Stderr, "  %s: %d triples\n", path, n)
		}
		if st.Len() == 0 {
			return nil, "", fmt.Errorf("no dbpedia.nt/dblp.nt/yago.nt found in %s", dataDir)
		}
		env, err := bench.NewEnvFromStore(st)
		return env, "data:" + dataDir, err
	default:
		fmt.Fprintf(os.Stderr, "generating datasets (%s scale)...\n", scaleName)
		env, err := bench.NewEnv(scale)
		return env, scaleName, err
	}
}
