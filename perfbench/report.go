package main

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// metric is one named, measured figure.
type metric struct {
	name  string
	value float64
	unit  string
	n     int // samples behind the value
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// latencies returns the durations of the phase's ops of one kind, in ms.
func (ph *phase) latencies(kind string) []float64 {
	var out []float64
	for _, op := range ph.ops {
		if op.kind == kind {
			out = append(out, ms(op.dur))
		}
	}
	return out
}

func (ph *phase) count(kind string) int {
	n := 0
	for _, op := range ph.ops {
		if op.kind == kind {
			n++
		}
	}
	return n
}

// endToEnd computes the user-visible metrics of an untraced phase. An op
// of the update workload is one write+read cycle; of the others, one read.
func endToEnd(workload string, ph *phase, setup setupResult) []metric {
	reads := ph.latencies("read")
	opKind := "read"
	if workload == "update" {
		opKind = "write" // one per cycle
	}
	rows := 0
	for _, op := range ph.ops {
		rows += op.rows
	}
	secs := ph.wall.Seconds()
	return []metric{
		{"setup_s", setup.seconds, "s", setupRuns},
		{"setup_heap_mb", setup.heapBytes / (1 << 20), "MB", setupRuns},
		{"ops_per_s", float64(ph.count(opKind)) / secs, "op/s", ph.count(opKind)},
		{"rows_per_s", float64(rows) / secs, "row/s", ph.count("read")},
		{"read_p50_ms", readMedian(ph), "ms", len(reads)},
		{"read_p99_ms", quantile(reads, 0.99), "ms", len(reads)},
	}
}

// readMedian is the median read latency, taken as the request-weighted
// median of each query's own median latency. Reads mix queries whose
// latencies differ by orders of magnitude; a plain median of the pooled
// samples lands in the tail of whichever query straddles the halfway
// mark, or between the slowest run of one query and the fastest of the
// next, and moves with every small change in the mix. Where the queries'
// latencies do not overlap, both estimate the same point.
func readMedian(ph *phase) float64 {
	byFrame := map[string][]float64{}
	for _, op := range ph.ops {
		if op.kind == "read" {
			byFrame[op.name] = append(byFrame[op.name], ms(op.dur))
		}
	}
	type group struct {
		median float64
		n      int
	}
	var groups []group
	total := 0
	for _, xs := range byFrame {
		groups = append(groups, group{median(xs), len(xs)})
		total += len(xs)
	}
	sort.Slice(groups, func(i, j int) bool { return groups[i].median < groups[j].median })
	seen := 0
	for _, g := range groups {
		seen += g.n
		if 2*seen >= total {
			return g.median
		}
	}
	return 0
}

// printFrames writes each read query's sample count and latency
// quartiles.
func printFrames(w io.Writer, ph *phase) {
	byFrame := map[string][]float64{}
	var names []string
	for _, op := range ph.ops {
		if op.kind == "read" {
			if byFrame[op.name] == nil {
				names = append(names, op.name)
			}
			byFrame[op.name] = append(byFrame[op.name], ms(op.dur))
		}
	}
	sort.Slice(names, func(i, j int) bool { return median(byFrame[names[i]]) < median(byFrame[names[j]]) })
	for _, name := range names {
		xs := byFrame[name]
		fmt.Fprintf(w, "# read %-4s n=%-5d p25 %9.3f ms  p50 %9.3f ms  p75 %9.3f ms\n",
			name, len(xs), quantile(xs, 0.25), median(xs), quantile(xs, 0.75))
	}
}

// writeLatency reports the update workload's write latencies, which the
// other workloads do not have.
func writeLatency(ph *phase) []metric {
	w := ph.latencies("write")
	return []metric{
		{"write_p50_ms", median(w), "ms", len(w)},
		{"write_p99_ms", quantile(w, 0.99), "ms", len(w)},
	}
}

// layerSamples gathers, per op, the summed inclusive time and bytes of
// each span name, plus per-op self time.
type layerSamples struct {
	incl  map[string][]float64 // name -> per-op summed duration (ms)
	self  map[string][]float64 // name -> per-op summed self time (ms)
	bytes map[string][]float64 // name -> per-op summed bytes
	count map[string]int       // name -> spans
	ops   map[string]int       // root name -> ops
	// opTime is, per span name, the summed duration of the ops that
	// contain it (ms).
	opTime map[string]float64
	// excess counts ops whose span self times sum past their duration.
	excess int
}

func collectLayers(spans []span) *layerSamples {
	ls := &layerSamples{
		incl: map[string][]float64{}, self: map[string][]float64{}, bytes: map[string][]float64{},
		count: map[string]int{}, ops: map[string]int{}, opTime: map[string]float64{},
	}
	ids := make([]int64, 0)
	trees := groupOps(spans)
	for id := range trees {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		ot := trees[id]
		ls.ops[ot.root.Name]++
		incl, self, byt := map[string]float64{}, map[string]float64{}, map[string]float64{}
		var selfSum int64
		for s, st := range ot.selfTimes() {
			incl[s.Name] += float64(s.dur()) / 1e6
			self[s.Name] += float64(st) / 1e6
			byt[s.Name] += float64(s.Bytes)
			ls.count[s.Name]++
			selfSum += st
		}
		if selfSum > ot.root.dur() {
			ls.excess++
		}
		for name := range incl {
			ls.opTime[name] += float64(ot.root.dur()) / 1e6
			ls.incl[name] = append(ls.incl[name], incl[name])
			ls.self[name] = append(ls.self[name], self[name])
			ls.bytes[name] = append(ls.bytes[name], byt[name])
		}
	}
	return ls
}

// frac returns a/b, or 0 when b is 0.
func frac(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// perLayer computes the layer metrics of a traced phase. Times are means
// per op that touched the layer, so they add up to the op time.
func perLayer(ph *phase, setup setupResult, in *input) []metric {
	ls := collectLayers(ph.spans)
	spanMS := func(name, span string) metric {
		return metric{name, mean(ls.incl[span]), "ms", len(ls.incl[span])}
	}
	perOp := func(name, span, unit string) metric {
		return metric{name, mean(ls.bytes[span]), unit, len(ls.bytes[span])}
	}
	clientOps := ls.ops["op.read"] + ls.ops["op.write"]

	// Requests, retries, sheds and cache outcomes from the wire spans.
	attempts := map[string]int{}
	var shed, hits, cached int
	for _, s := range ph.spans {
		switch s.Name {
		case "http.roundtrip":
			attempts[s.ReqID]++
		case "server.handle":
			if s.Status == 429 || s.Status == 503 {
				shed++
			}
			if s.Cache != "" {
				cached++
				if s.Cache == "hit" {
					hits++
				}
			}
		}
	}
	requests, retries := 0, 0
	for _, n := range attempts {
		requests += n
		retries += n - 1
	}

	// The sparql stages from the replays: plan is the estimate minus its
	// parse, exec the full evaluation minus the estimate.
	parse, est, do := ls.incl["sparql.parse"], ls.incl["sparql.estimate"], ls.incl["sparql.do"]
	var plan, exec []float64
	for i := range est {
		if i < len(parse) && i < len(do) {
			plan = append(plan, est[i]-parse[i])
			exec = append(exec, do[i]-est[i])
		}
	}

	rows := 0
	for _, op := range ph.ops {
		rows += op.rows
	}
	nreads := ph.count("read")

	cb, cn := ph.cacheBefore, ph.cacheNow
	resultHits, resultMisses := float64(cn.Results.Hits-cb.Results.Hits), float64(cn.Results.Misses-cb.Results.Misses)
	planHits, planMisses := float64(cn.Plans.Hits-cb.Plans.Hits), float64(cn.Plans.Misses-cb.Plans.Misses)
	lookups := int(resultHits + resultMisses)

	var walBytes, written, tombs, bumps, compactions float64
	for _, w := range ph.writes {
		walBytes += float64(w.walBytes)
		written += float64(w.triples)
		tombs += float64(w.tombsAfter)
		bumps += float64(w.versionBumps)
		if w.tombsBefore > 0 && w.tombsAfter == 0 {
			compactions++
		}
	}
	writes, ops := float64(len(ph.writes)), float64(clientOps)
	loadSecs := setup.loadMS / 1e3
	return []metric{
		spanMS("core.compile_ms", "core.compile"),
		spanMS("client.select_ms", "client.select"),
		{"client.requests_per_op", frac(float64(requests), ops), "req/op", clientOps},
		{"client.retries", float64(retries), "count", requests},
		spanMS("http.roundtrip_ms", "http.roundtrip"),
		spanMS("http.body_ms", "http.body"),
		perOp("http.bytes_in", "http.body", "B/op"),
		spanMS("server.handle_ms", "server.handle"),
		perOp("server.bytes_out", "server.handle", "B/op"),
		{"server.shed", float64(shed), "count", ls.count["server.handle"]},
		{"server.cache_hit_ratio", frac(float64(hits), float64(cached)), "ratio", cached},
		spanMS("sparql.parse_ms", "sparql.parse"),
		{"sparql.plan_ms", mean(plan), "ms", len(plan)},
		{"sparql.exec_ms", mean(exec), "ms", len(exec)},
		spanMS("sparql.encode_ms", "sparql.encode"),
		perOp("sparql.json_bytes", "sparql.encode", "B/op"),
		spanMS("sparql.decode_ms", "sparql.decode"),
		{"sparql.evaluations_per_op", frac(float64(ph.evals), ops), "eval/op", clientOps},
		{"sparql.wcoj_seeks", frac(float64(ph.seeks), ops), "seek/op", clientOps},
		{"qcache.hit_ratio", frac(resultHits, resultHits+resultMisses), "ratio", lookups},
		{"qcache.plan_hit_ratio", frac(planHits, planHits+planMisses), "ratio", int(planHits + planMisses)},
		{"qcache.evictions", float64(cn.Results.Evictions - cb.Results.Evictions), "count", lookups},
		{"qcache.coalesced", float64(cn.Singleflight.Waiters - cb.Singleflight.Waiters), "count", lookups},
		spanMS("dataframe.build_ms", "dataframe.build"),
		{"dataframe.rows", frac(float64(rows), float64(nreads)), "row/op", nreads},
		{"store.load_ms", setup.loadMS, "ms", setupRuns},
		{"store.load_triples_per_s", float64(in.triples()) / loadSecs, "triple/s", setupRuns},
		{"store.heap_bytes_per_triple", setup.heapBytes / float64(in.triples()), "B/triple", setupRuns},
		{"store.wal_bytes_per_triple", frac(walBytes, written), "B/triple", len(ph.writes)},
		{"store.tombstones", frac(tombs, writes), "count", len(ph.writes)},
		{"store.version_bumps", frac(bumps, writes), "count", len(ph.writes)},
		{"store.compactions", compactions, "count", len(ph.writes)},
	}
}

// writeLayers reports the write path's timings, which only the update
// workload has: the update call and the writes that ended in a compaction.
func writeLayers(ph *phase) []metric {
	ls := collectLayers(ph.spans)
	var stalls []float64
	for _, w := range ph.writes {
		if w.tombsBefore > 0 && w.tombsAfter == 0 {
			stalls = append(stalls, ms(w.dur))
		}
	}
	return []metric{
		{"client.update_ms", mean(ls.incl["client.update"]), "ms", len(ls.incl["client.update"])},
		{"store.compaction_stall_ms", mean(stalls), "ms", len(stalls)},
	}
}

// printSelfTimes writes each layer's self time per op and its share of op
// time, by op kind.
func printSelfTimes(w io.Writer, spans []span) {
	ls := collectLayers(spans)
	var names []string
	for name := range ls.self {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "# self time per op (ops: %s; ops whose self times exceed their duration: %d)\n", opCounts(ls), ls.excess)
	for _, name := range names {
		total := 0.0
		for _, x := range ls.self[name] {
			total += x
		}
		share := 0.0
		if t := ls.opTime[name]; t > 0 {
			share = total / t
		}
		fmt.Fprintf(w, "#   %-18s self %9.3f ms/op  incl %9.3f ms/op  %5.1f%% of its ops' time  n=%d\n",
			name, mean(ls.self[name]), mean(ls.incl[name]), 100*share, len(ls.self[name]))
	}
}

func opCounts(ls *layerSamples) string {
	var parts []string
	for _, k := range []string{"op.read", "op.write", "op.replay"} {
		if ls.ops[k] > 0 {
			parts = append(parts, fmt.Sprintf("%s=%d", k, ls.ops[k]))
		}
	}
	return strings.Join(parts, " ")
}
