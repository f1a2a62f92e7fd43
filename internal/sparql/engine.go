package sparql

import (
	"context"
	"runtime"
	"sync/atomic"
	"time"

	"rdfframes/internal/qcache"
	"rdfframes/internal/store"
)

// Engine evaluates SPARQL queries against a triple store. It is the
// stand-in for the RDF database system (Virtuoso in the paper).
type Engine struct {
	// Store is the underlying quad store.
	Store *store.Store
	// DefaultGraphs are queried when a query has no FROM clause. Empty
	// means the union of all graphs in the store.
	DefaultGraphs []string
	// timeout bounds query execution; zero disables the deadline. Atomic
	// because callers (the benchmark harness, an operator endpoint) retune
	// it while queries may still be evaluating on server goroutines.
	timeout atomic.Int64
	// Parallelism is the intra-query worker count: the evaluator's
	// morsel-driven operators (base index scans, pattern probes, joins,
	// DISTINCT, final decode) fan out to this many goroutines. 0 (the
	// default) uses runtime.GOMAXPROCS(0); 1 runs every operator on the
	// query goroutine — exactly the serial engine. Results are
	// byte-identical at every setting (the determinism contract in
	// parallel.go). Set before serving traffic; it is read per query.
	Parallelism int
	// DisableOptimizer turns off the cost-based planner, falling back to
	// the greedy probe-memoized join ordering (the pre-planner heuristic).
	// Used by ablation benchmarks and the planner byte-identity tests.
	DisableOptimizer bool
	// DisablePushdown turns off early filter application during BGP
	// evaluation (for ablation benchmarks).
	DisablePushdown bool
	// DisableWCOJ turns off the worst-case-optimal join operator, so every
	// BGP segment runs the binary join pipeline (the identity baseline for
	// the WCOJ byte-identity gate and ablation benchmarks). Like
	// Parallelism, set before serving traffic: cached plans are not
	// re-planned when it changes.
	DisableWCOJ bool

	// wcojStats counts worst-case-optimal join activity (segments, run
	// seeks, backtracks, runtime fallbacks); exported as the
	// rdfframes_wcoj_* metric family.
	wcojStats wcojCounters

	// plans caches parsed queries by text together with their optimized
	// plans (re-optimized whenever the store's stats epoch moves); results
	// caches full decoded result sets keyed by (store version, graphs,
	// normalized text). Both are nil until EnableCache (see cache.go).
	plans   *qcache.Cache[*cachedPlan]
	results *qcache.Cache[*cachedResult]

	// flights coalesces concurrent result-cache misses on the same key into
	// a single evaluation (stampede protection; see flight.go).
	flights flightGroup

	// evals counts evaluator runs — not cache hits, not coalesced waits —
	// so tests and the traffic harness can assert exactly how many times a
	// workload paid for evaluation.
	evals atomic.Uint64

	// evalHook, when set, runs at the start of every evaluation (under the
	// store read lock, with the evaluation's context); a non-nil error
	// aborts the evaluation. It exists for fault injection in tests — slow
	// or failing evaluations — and is nil in production. Set via
	// SetEvalHook.
	evalHook atomic.Pointer[func(ctx context.Context) error]

	// update is the write-side state — the update mutex, attached WAL, and
	// idempotency-token index (see update_eval.go).
	update updateState
}

// NewEngine returns an engine over st with no default-graph restriction.
func NewEngine(st *store.Store) *Engine { return &Engine{Store: st} }

// SetTimeout bounds each query evaluation; zero disables the deadline.
// Safe to call concurrently with running queries, which sample it when
// evaluation starts.
func (e *Engine) SetTimeout(d time.Duration) { e.timeout.Store(int64(d)) }

// Timeout returns the per-query evaluation deadline.
func (e *Engine) Timeout() time.Duration { return time.Duration(e.timeout.Load()) }

// SetEvalHook installs (or, with nil, removes) a hook run at the start of
// every evaluation with the evaluation's context; a non-nil error aborts
// the evaluation with that error. The hook runs under the store read lock.
// This is the engine's fault-injection point for tests (see
// internal/faults); production servers leave it unset. Safe to call
// concurrently with running queries.
func (e *Engine) SetEvalHook(h func(ctx context.Context) error) {
	if h == nil {
		e.evalHook.Store(nil)
		return
	}
	e.evalHook.Store(&h)
}

// Evaluations returns how many times the engine has actually run its
// evaluator — cache hits and coalesced (singleflight) waits do not count.
func (e *Engine) Evaluations() uint64 { return e.evals.Load() }

// WCOJStats reports the cumulative worst-case-optimal join counters:
// segments executed by the trie walk, sorted-run iterator seeks, dead-end
// backtracks, and planned segments that fell back to the binary pipeline
// at run time. The same atomics back the rdfframes_wcoj_* metric family.
func (e *Engine) WCOJStats() (segments, seeks, backtracks, fallbacks uint64) {
	return e.wcojStats.segments.Load(), e.wcojStats.seeks.Load(),
		e.wcojStats.backtracks.Load(), e.wcojStats.fallbacks.Load()
}

// parallelism resolves the effective worker count for one query.
func (e *Engine) parallelism() int {
	if e.Parallelism > 0 {
		return e.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}

// queryVersioned evaluates src and reports the store version the answer
// reflects, read under the same lock hold as the evaluation: mutation
// batches commit under the write lock and bump the version before releasing
// it, so a version observed here can never mis-attribute a pre-batch answer
// to the post-batch state.
func (e *Engine) queryVersioned(ctx context.Context, src string) (*Results, uint64, error) {
	q, qp, err := e.planned(ctx, src)
	if err != nil {
		return nil, 0, err
	}
	if q.Explain {
		rep, err := e.explainParsed(ctx, src, q)
		if err != nil {
			return nil, 0, err
		}
		return rep.Results(), e.Store.Version(), nil
	}
	e.Store.RLock()
	defer e.Store.RUnlock()
	res, err := e.evalLocked(ctx, q, qp)
	return res, e.Store.Version(), err
}

// evalContext evaluates an already-parsed query inside one store read
// transaction bounded by ctx, so concurrent mutations never interleave with
// a running query. Evaluation never mutates q; a parsed query is safe to
// evaluate from many goroutines at once.
func (e *Engine) evalContext(ctx context.Context, q *Query) (*Results, error) {
	qp := e.planFor(q) // before RLock: planning takes its own read locks
	e.Store.RLock()
	defer e.Store.RUnlock()
	return e.evalLocked(ctx, q, qp)
}

// planFor optimizes q unless the optimizer is off.
// Plans built here are untracked and uncached; the text-keyed serving path
// (planned) adds the epoch-checked plan cache on top.
func (e *Engine) planFor(q *Query) *queryPlan {
	if e.DisableOptimizer {
		return nil
	}
	return e.buildPlan(q, false)
}

// evalLocked evaluates q under an already-optimized plan (nil runs the
// greedy heuristic) with the store read lock already held.
func (e *Engine) evalLocked(ctx context.Context, q *Query, qp *queryPlan) (*Results, error) {
	ev, err := e.evaluatorLocked(ctx, qp)
	if err != nil {
		return nil, err
	}
	return ev.evalQuery(q, e.DefaultGraphs)
}

// evaluatorLocked runs the eval hook, counts the evaluation, and builds
// the evaluator for one query run. The caller holds the store read lock.
func (e *Engine) evaluatorLocked(ctx context.Context, qp *queryPlan) (*evaluator, error) {
	if h := e.evalHook.Load(); h != nil {
		if err := (*h)(ctx); err != nil {
			return nil, err
		}
	}
	e.evals.Add(1)
	ev := &evaluator{
		store:           e.Store,
		dict:            newEvalDict(e.Store.Dict()),
		cache:           &regexCache{},
		disablePushdown: e.DisablePushdown,
		qp:              qp,
		workers:         e.parallelism(),
		wcojCtr:         &e.wcojStats,
	}
	ev.tk.ctx = ctx
	if d := e.Timeout(); d > 0 {
		ev.tk.deadline = time.Now().Add(d)
	}
	return ev, nil
}
