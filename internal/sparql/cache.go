package sparql

import (
	"context"
	"errors"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"rdfframes/internal/obs"
	"rdfframes/internal/qcache"
)

// Serving-cache defaults. RDFFrames pipelines generate SPARQL
// programmatically, so the serving workload is dominated by repeats of the
// same machine-built query text; these sizes comfortably cover the paper's
// whole workload many times over.
const (
	// DefaultPlanCacheEntries bounds the parsed-plan cache (cost 1/entry).
	DefaultPlanCacheEntries = 4096
	// DefaultResultCacheRows bounds the result cache by total cached rows.
	// A decoded row of a few terms runs ~250 bytes, so 1<<18 rows is a
	// roughly 64 MB-equivalent budget.
	DefaultResultCacheRows = 1 << 18
)

// cachedResult is one result-cache entry: the complete, ordered result of
// a query with its outer LIMIT/OFFSET stripped, valid exactly for the
// store version recorded at evaluation time (which is also baked into the
// entry's key, so a version mismatch is structurally a miss).
type cachedResult struct {
	version uint64
	res     *Results
	// key is the entry's result-cache key (empty for ephemeral entries
	// that were never stored), so memo growth can be re-charged to the
	// cache budget.
	key string

	// pages memoizes the serialized SPARQL JSON of served row windows, so
	// a repeated request costs a byte copy instead of re-encoding the rows
	// (which dominates the warm path for large results). Capped at
	// maxEncodedPages windows, and every memoized byte is charged back to
	// the result cache's row budget (see cost); a paginated sweep's
	// encodings sum to about one encoding of the whole entry.
	mu        sync.Mutex
	pages     map[[2]int][]byte
	memoBytes int64
}

// maxEncodedPages bounds the per-entry encoding memo: generous for any
// real pagination sweep, small enough that adversarial distinct
// LIMIT/OFFSET combinations cannot churn an entry indefinitely.
const maxEncodedPages = 32

// resultRowCostBytes is the per-row byte equivalence behind the result
// cache's row budget (DefaultResultCacheRows ≈ 64 MB): memoized encoding
// bytes are converted to row-budget units at this rate so the budget
// bounds total memory, rows and encodings together.
const resultRowCostBytes = 256

// cost is the entry's current charge against the result cache budget:
// its rows plus its memoized encodings in row equivalents.
func (ce *cachedResult) cost() int64 {
	ce.mu.Lock()
	defer ce.mu.Unlock()
	return int64(len(ce.res.Rows)) + 1 + ce.memoBytes/resultRowCostBytes
}

// encodedPage returns the SPARQL JSON serialization of rows[lo:hi],
// memoized per window; grew reports whether the memo took on new bytes
// (the caller re-charges the entry to the cache budget). Encoding is
// deterministic, so a memoized page is byte-identical to a fresh
// serialization of the same rows.
func (ce *cachedResult) encodedPage(lo, hi int) (b []byte, grew bool, err error) {
	key := [2]int{lo, hi}
	ce.mu.Lock()
	b, ok := ce.pages[key]
	ce.mu.Unlock()
	if ok {
		return b, false, nil
	}
	b, err = (&Results{Vars: ce.res.Vars, Rows: ce.res.Rows[lo:hi]}).MarshalJSON()
	if err != nil {
		return nil, false, err
	}
	ce.mu.Lock()
	if ce.pages == nil {
		ce.pages = make(map[[2]int][]byte)
	}
	if len(ce.pages) < maxEncodedPages {
		ce.pages[key] = b
		ce.memoBytes += int64(len(b))
		grew = true
	}
	ce.mu.Unlock()
	return b, grew, nil
}

// ServeInfo describes how a Do call was answered.
type ServeInfo struct {
	// CacheEnabled reports whether the result cache was consulted.
	CacheEnabled bool
	// Hit reports whether the response came from the result cache.
	Hit bool
	// Coalesced reports that the call missed the cache but joined another
	// caller's in-progress evaluation of the same key (singleflight) rather
	// than evaluating itself.
	Coalesced bool
	// StoreVersion is the store mutation epoch the response reflects.
	StoreVersion uint64
	// PlanDigest is the structural hash of the optimized plan the query
	// maps to ("" when the optimizer is off); see queryPlan.planDigest.
	PlanDigest string
}

// CacheOutcome renders the serve outcome as one word for annotations,
// headers, and the slow-query log.
func (si ServeInfo) CacheOutcome() string {
	switch {
	case !si.CacheEnabled:
		return "off"
	case si.Hit:
		return "hit"
	case si.Coalesced:
		return "coalesced"
	default:
		return "miss"
	}
}

// EnableCache switches on the serving-path caches: a plan cache of up to
// planEntries parsed queries and a result cache bounded by resultRows
// total cached rows (<= 0 disables that cache). Call before serving
// traffic; it is not synchronized with in-flight queries.
func (e *Engine) EnableCache(planEntries int, resultRows int64) {
	if planEntries > 0 {
		e.plans = qcache.New[*cachedPlan](int64(planEntries), 16)
	}
	if resultRows > 0 {
		e.results = qcache.New[*cachedResult](resultRows, 4)
	}
}

// CacheEnabled reports whether the result cache is on.
func (e *Engine) CacheEnabled() bool { return e.results != nil }

// CacheStats is a snapshot of the serving-cache counters.
type CacheStats struct {
	Enabled bool         `json:"enabled"`
	Plans   qcache.Stats `json:"plans"`
	Results qcache.Stats `json:"results"`
	// Singleflight counts stampede-protection outcomes on result-cache
	// misses: evaluations led vs callers coalesced onto one.
	Singleflight FlightStats `json:"singleflight"`
}

// CacheStats returns the current cache counters (zero when disabled).
func (e *Engine) CacheStats() CacheStats {
	st := CacheStats{Enabled: e.results != nil}
	if e.plans != nil {
		st.Plans = e.plans.Stats()
	}
	if e.results != nil {
		st.Results = e.results.Stats()
	}
	st.Singleflight = e.flights.stats()
	return st
}

// cachedPlan is one plan-cache entry: the immutable parsed query plus its
// latest optimized plan. The plan pointer is atomic because concurrent
// queries may race to re-optimize after a stats-epoch move; either winner
// is a valid plan for the epoch, so last-write-wins is fine.
type cachedPlan struct {
	q    *Query
	plan atomic.Pointer[queryPlan]
}

// planned resolves src to its parsed query and an optimized plan. Plans are
// cached alongside the parse, keyed by the store's stats epoch: when the
// data distribution shifts (bulk ingest, new graphs) the epoch moves and
// the entry is re-optimized on next use, while steady-state serving reuses
// the cached plan untouched. The returned plan is nil when the optimizer
// is off (DisableOptimizer). A trace carried by ctx gets
// parse/plan spans and the plan-cache outcome.
func (e *Engine) planned(ctx context.Context, src string) (*Query, *queryPlan, error) {
	tr := obs.TraceFrom(ctx)
	optimize := !e.DisableOptimizer
	if e.plans == nil {
		endParse := tr.StartSpan("parse")
		q, err := Parse(src)
		endParse()
		if err != nil || !optimize || q.Explain {
			// EXPLAIN queries build their own tracked plan in
			// explainParsed; planning here would be double work.
			return q, nil, err
		}
		endPlan := tr.StartSpan("plan")
		qp := e.buildPlan(q, false)
		endPlan()
		return q, qp, nil
	}
	entry, ok := e.plans.Get(src)
	if ok {
		// First write wins: a request resolves the plan cache more than once
		// (admission-control cost estimation, then serve), and the outcome
		// that characterizes the request is the first one.
		if tr.Note("plan_cache") == "" {
			tr.Annotate("plan_cache", "hit")
		}
	} else {
		tr.Annotate("plan_cache", "miss")
		endParse := tr.StartSpan("parse")
		q, err := Parse(src)
		endParse()
		if err != nil {
			return nil, nil, err
		}
		entry = &cachedPlan{q: q}
		e.plans.Put(src, entry, 1)
	}
	if !optimize || entry.q.Explain {
		return entry.q, nil, nil
	}
	qp := entry.plan.Load()
	if qp == nil || qp.epoch != e.Store.StatsEpoch() {
		endPlan := tr.StartSpan("plan")
		qp = e.buildPlan(entry.q, false)
		endPlan()
		entry.plan.Store(qp)
	}
	tr.Annotate("stats_epoch", strconv.FormatUint(qp.epoch, 10))
	return entry.q, qp, nil
}

// serve resolves src through the caches to a result entry plus the
// LIMIT/OFFSET window the request asked for — the core of the serving path
// behind Do. When caching is off (or the result was too large to admit)
// the entry is ephemeral and dies with the request.
//
// Pagination-aware slicing: the cache key is the query text with its
// trailing top-level LIMIT/OFFSET stripped, and the cached value is the
// full ordered result of that normalized query. Every page of a client's
// LIMIT/OFFSET sweep therefore maps to the same entry and is answered by
// slicing the cached rows — k paginated round trips cost one evaluation.
// This is exact because the evaluator is deterministic and itself applies
// LIMIT/OFFSET as a final slice over the fully-materialized result.
//
// Invalidation is by store version: the version is part of the key, so a
// mutation moves every lookup onto fresh keys and stale entries age out of
// the LRU without ever being served.
func (e *Engine) serve(ctx context.Context, src string) (ce *cachedResult, limit, offset int, info ServeInfo, err error) {
	info = ServeInfo{StoreVersion: e.Store.Version()}
	limit = -1
	tr := obs.TraceFrom(ctx)
	q, qp, err := e.planned(ctx, src)
	if err != nil {
		return nil, 0, 0, info, err
	}
	info.PlanDigest = qp.planDigest()
	tr.Annotate("plan_digest", info.PlanDigest)
	if q.Explain {
		// EXPLAIN output depends on live actual cardinalities; it bypasses
		// the result cache and dies with the request.
		rep, err := e.explainParsed(ctx, src, q)
		if err != nil {
			return nil, 0, 0, info, err
		}
		return &cachedResult{version: info.StoreVersion, res: rep.Results()}, limit, 0, info, nil
	}
	if e.results == nil {
		evalPlan := qp
		if tr.Detailed() && qp != nil {
			// Per-operator detail was asked for: run under a fresh tracked
			// plan (tracked plans record actuals and must not be shared).
			evalPlan = e.buildPlan(q, true)
		}
		endExec := tr.StartSpan("exec")
		e.Store.RLock()
		res, err := e.evalLocked(ctx, q, evalPlan)
		e.Store.RUnlock()
		endExec()
		if err != nil {
			return nil, 0, 0, info, err
		}
		if evalPlan != nil && evalPlan.track {
			tr.Attach("plan", evalPlan.root)
		}
		return &cachedResult{version: info.StoreVersion, res: res}, limit, 0, info, nil
	}
	info.CacheEnabled = true

	// Normalize: strip the outer LIMIT/OFFSET so all pages share one key.
	// The textual strip is verified against the parsed query; on any
	// disagreement (comments, exotic spellings) fall back to caching the
	// exact text, which is still correct — just without page sharing.
	key, offset := src, 0
	normalized := q
	if stripped, l, o, ok := stripPagination(src); ok && l == q.Limit && o == q.Offset {
		key, limit, offset = stripped, l, o
		nq := *q
		nq.Limit, nq.Offset = -1, 0
		normalized = &nq
	}

	ck := cacheKey(info.StoreVersion, e.DefaultGraphs, key)
	for {
		endLookup := tr.StartSpan("result_cache_lookup")
		hit, ok := e.results.Get(ck)
		endLookup()
		if ok {
			info.Hit = true
			info.StoreVersion = hit.version
			tr.Annotate("result_cache", "hit")
			return hit, limit, offset, info, nil
		}

		// Miss: evaluate the normalized (unpaginated) query in one read
		// transaction — at most once across concurrent misses of the same
		// key (stampede protection: N concurrent cold requests coalesce
		// into 1 evaluation, see flight.go). The evaluation runs under the
		// flight's context, which stays live while any caller still waits,
		// so a cancelled leader promotes its waiters instead of killing
		// their evaluation; this caller's own ctx bounds only its wait.
		//
		// The version is re-read under the lock — it may have moved since
		// the lookup, and the entry must be keyed to the state the
		// evaluation actually saw. The plan carries over: LIMIT/OFFSET do
		// not affect join order, and the normalized copy shares the
		// original's group pointers the plan is keyed on.
		lookupVersion := info.StoreVersion
		ce, shared, err := e.flights.do(ctx, ck, func(fctx context.Context) (*cachedResult, error) {
			// This closure runs only when this caller leads the flight, so
			// the enclosing trace (not one fished from fctx, which is the
			// flight's shared context) is the right recording target.
			evalPlan := qp
			if tr.Detailed() && qp != nil {
				// Per-operator detail: evaluate under a fresh tracked plan
				// built for the normalized query actually evaluated (tracked
				// plans record actuals and must not be shared).
				evalPlan = e.buildPlan(normalized, true)
			}
			endExec := tr.StartSpan("exec")
			e.Store.RLock()
			version := e.Store.Version()
			full, err := e.evalLocked(fctx, normalized, evalPlan)
			e.Store.RUnlock()
			endExec()
			if err != nil {
				return nil, err
			}
			if evalPlan != nil && evalPlan.track {
				tr.Attach("plan", evalPlan.root)
			}
			entryKey := ck
			if version != lookupVersion {
				entryKey = cacheKey(version, e.DefaultGraphs, key)
			}
			fce := &cachedResult{version: version, res: full, key: entryKey}
			e.results.Put(entryKey, fce, fce.cost())
			return fce, nil
		})
		if err != nil {
			if ctx.Err() == nil && errors.Is(err, context.Canceled) {
				// Joined a flight in the instant after its last caller left
				// (its evaluation was being aborted); this caller is still
				// live, so retry — the next round either hits the cache or
				// starts a fresh flight.
				continue
			}
			return nil, 0, 0, info, err
		}
		info.Coalesced = shared
		info.StoreVersion = ce.version
		tr.Annotate("result_cache", "miss")
		if shared {
			tr.Annotate("singleflight", "waiter")
		} else {
			tr.Annotate("singleflight", "leader")
		}
		return ce, limit, offset, info, nil
	}
}

// cacheKey builds the result-cache key: store version, the engine's
// default graphs, and the normalized query text, separated by bytes that
// cannot occur in any of them.
func cacheKey(version uint64, graphs []string, norm string) string {
	var sb strings.Builder
	sb.Grow(len(norm) + 32)
	sb.WriteString(strconv.FormatUint(version, 10))
	for _, g := range graphs {
		sb.WriteByte('\x1f')
		sb.WriteString(g)
	}
	sb.WriteByte('\x00')
	sb.WriteString(norm)
	return sb.String()
}

// pageBounds computes the [lo, hi) row window LIMIT/OFFSET (limit -1 =
// none) select over a fully-materialized n-row result: offset clamped to
// [0, n], then limit. It is the single definition of the final slice —
// the evaluator applies it to every query's materialized solutions, and
// the result cache applies it to cached rows, which is what makes a
// cached page slice exactly equal to direct evaluation.
func pageBounds(n, limit, offset int) (lo, hi int) {
	lo, hi = offset, n
	if lo < 0 {
		lo = 0
	}
	if lo > n {
		lo = n
	}
	if limit >= 0 && lo+limit < hi {
		hi = lo + limit
	}
	return lo, hi
}

// stripPagination removes a trailing top-level "LIMIT n" / "OFFSET m"
// clause pair (either order, either alone) from the end of a query's text,
// returning the prefix and the stripped values. ok is false when the text
// does not end in such a clause. Top-level LIMIT/OFFSET can only appear at
// the very end of a SELECT query — subqueries' modifiers sit inside
// braces — so a backwards token scan is exact; any residual ambiguity is
// caught by the caller's comparison against the parsed query.
func stripPagination(src string) (stripped string, limit, offset int, ok bool) {
	limit, offset = -1, 0
	rest := src
	seenLimit, seenOffset := false, false
	for {
		kw, val, prefix, found := trailingClause(rest)
		if !found {
			break
		}
		// A repeated keyword ("LIMIT 1 LIMIT 2") has last-one-wins parser
		// semantics; bail out and let the caller fall back to exact-text
		// caching rather than model that here.
		if kw == "limit" {
			if seenLimit {
				return "", 0, 0, false
			}
			seenLimit, limit = true, val
		} else {
			if seenOffset {
				return "", 0, 0, false
			}
			seenOffset, offset = true, val
		}
		rest = prefix
	}
	if !seenLimit && !seenOffset {
		return "", 0, 0, false
	}
	return strings.TrimRight(rest, " \t\r\n"), limit, offset, true
}

// trailingClause matches a final "LIMIT <digits>" or "OFFSET <digits>" at
// the end of s and returns the keyword (lowercased), the value, and the
// text before the clause.
func trailingClause(s string) (kw string, val int, prefix string, ok bool) {
	s = strings.TrimRight(s, " \t\r\n")
	i := len(s)
	for i > 0 && s[i-1] >= '0' && s[i-1] <= '9' {
		i--
	}
	if i == len(s) || i == 0 {
		return "", 0, "", false
	}
	num := s[i:]
	j := i
	for j > 0 && isClauseSpace(s[j-1]) {
		j--
	}
	if j == i {
		// No whitespace between keyword and number ("LIMIT10" is not a
		// modifier clause).
		return "", 0, "", false
	}
	k := j
	for k > 0 && isClauseAlpha(s[k-1]) {
		k--
	}
	word := strings.ToLower(s[k:j])
	if word != "limit" && word != "offset" {
		return "", 0, "", false
	}
	if k > 0 {
		if c := s[k-1]; !isClauseSpace(c) && c != '}' && c != ')' {
			return "", 0, "", false
		}
	}
	n, err := strconv.Atoi(num)
	if err != nil {
		return "", 0, "", false
	}
	return word, n, s[:k], true
}

func isClauseSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\r' || c == '\n' }

func isClauseAlpha(c byte) bool { return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' }
