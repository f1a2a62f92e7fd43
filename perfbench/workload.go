package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"time"

	"rdfframes"
	"rdfframes/internal/client"
	"rdfframes/internal/datagen"
	"rdfframes/internal/rdf"
	"rdfframes/internal/sparql"
	"rdfframes/internal/store"
)

// Workload shapes.
const (
	zipfS = 1.3
	// zipfDeckSize is the number of requests per Zipf deck. At s = 1.3
	// over 18 frames it gives each of the ten most expensive frames one
	// request per deck, so the costliest makes up 1/64 of the reads. That
	// is more than the 1% beyond read_p99_ms, so the percentile falls
	// among that frame's latencies, not on the edge between two frames.
	zipfDeckSize = 64
	// batchActors YAGO actors of batchTriplesPerActor triples make one
	// update batch.
	batchActors          = 16
	batchTriplesPerActor = 4
	batchSize            = batchActors * batchTriplesPerActor
	// liveBatches bounds the inserted batches: once that many are live,
	// writes alternate deleting the oldest and inserting a fresh one, so
	// the live size holds steady.
	liveBatches = 16
)

// opResult is one measured operation.
type opResult struct {
	kind string // "read", "write" or "replay"
	name string // frame id, "insert" or "delete"
	dur  time.Duration
	// untimed is harness time spent in the loop around the op: preparing
	// and checking its answer, and the traced replay. It counts in no
	// latency and is taken out of the loop time the rates divide by.
	untimed time.Duration
	rows    int
	err     error // transport, status, or correctness failure
}

// phase is one timed stretch of a workload, run by one closed-loop
// client.
type phase struct {
	ops []opResult
	// wall is the client's time in the loop, less the ops' untimed time.
	wall time.Duration
	// writes are the update workload's write observations (traced only).
	writes []writeObs
	spans  []span
	// counters over the phase
	evals, seeks          uint64
	cacheBefore, cacheNow sparql.CacheStats
}

// writeObs is what the harness saw around one write.
type writeObs struct {
	dur          time.Duration
	triples      int
	walBytes     int64
	versionBumps uint64
	tombsBefore  int
	tombsAfter   int
}

// runner drives one workload against a stack.
type runner struct {
	seed int64
	rng  *rand.Rand // frame order, Zipf decks and the first update read
	st   *stack
	fs   []*frame
	ref  *sparql.Engine // uncached engine over the same store
	tr   *tracer        // nil when untraced

	// update workload state
	nextBatch int
	live      []int // batch indexes currently inserted, oldest first
}

func newRunner(seed int64, st *stack, fs []*frame) *runner {
	ref := sparql.NewEngine(st.store)
	ref.SetTimeout(queryTimeout)
	return &runner{seed: seed, rng: rand.New(rand.NewSource(seed)), st: st, fs: fs, ref: ref}
}

// read runs one frame through the deployed path, making the calls
// RDFFrame.Execute makes: compile, HTTP client, DataFrame build. Each
// layer call gets a span, which records nothing when untraced.
func (r *runner) read(c *client.HTTPClient, f *frame, want digest) opResult {
	res := opResult{kind: "read", name: f.id}
	var df *rdfframes.DataFrame
	start := time.Now()
	root := r.tr.start(0, 0, "op.read")
	h := root.child("core.compile")
	q, err := f.rdf.ToSPARQL()
	h.end()
	if err == nil {
		h = root.child("client.select")
		var sres *sparql.Results
		sres, err = c.WithContext(withSpan(context.Background(), h)).Select(q)
		h.end()
		if err == nil {
			h = root.child("dataframe.build")
			df = rdfframes.ResultsToDataFrame(sres)
			h.end()
		}
	}
	root.end()
	res.dur = time.Since(start)
	if err != nil {
		res.err = err
		return res
	}
	check := time.Now()
	res.rows = df.Len()
	if got := digestOf(df.Columns(), df.Row, df.Len()); got != want {
		res.err = fmt.Errorf("%s: result differs from reference (%d rows, want %d)", f.id, got.rows, want.rows)
	}
	res.untimed = time.Since(check)
	return res
}

// replay re-runs a query through the engine's public entry points on the
// uncached engine, outside any timed op, so the sparql layer's stages are
// timed one by one.
func (r *runner) replay(query string) error {
	root := r.tr.start(0, 0, "op.replay")
	defer root.end()
	h := root.child("sparql.parse")
	_, err := sparql.Parse(query)
	h.end()
	if err != nil {
		return err
	}
	h = root.child("sparql.estimate")
	_, _, err = r.ref.EstimateCost(query)
	h.end()
	if err != nil {
		return err
	}
	h = root.child("sparql.do")
	resp, err := r.ref.Do(context.Background(), sparql.Request{Query: query})
	h.end()
	if err != nil {
		return err
	}
	h = root.child("sparql.encode")
	body, err := resp.Results.MarshalJSON()
	h.s.Bytes = int64(len(body))
	h.end()
	if err != nil {
		return err
	}
	h = root.child("sparql.decode")
	_, err = sparql.ReadJSON(bytes.NewReader(body))
	h.end()
	return err
}

// loopFunc runs a workload until deadline, finishing the unit of work
// (pass or deck) it is in. It returns its ops, its time in the loop, and
// the update workload's write observations.
type loopFunc func(deadline time.Time) ([]opResult, time.Duration, []writeObs)

// measure runs a workload loop for a timed phase, snapshotting the engine
// counters around it.
func (r *runner) measure(traced bool, loop loopFunc, seconds float64) phase {
	if traced {
		r.tr = newTracer()
		r.st.switches.set(r.tr)
	}
	ph := phase{cacheBefore: r.st.engine.CacheStats()}
	evals := r.st.engine.Evaluations()
	_, seeks, _, _ := r.st.engine.WCOJStats()
	ph.ops, ph.wall, ph.writes = loop(time.Now().Add(time.Duration(seconds * float64(time.Second))))
	for _, op := range ph.ops {
		ph.wall -= op.untimed
	}
	ph.evals = r.st.engine.Evaluations() - evals
	_, seeksNow, _, _ := r.st.engine.WCOJStats()
	ph.seeks = seeksNow - seeks
	ph.cacheNow = r.st.engine.CacheStats()
	if traced {
		r.st.switches.set(nil)
		ph.spans = r.tr.finish()
		r.tr = nil
	}
	return ph
}

// replayAfter replays f's query when tracing, attaching a failure and the
// time it took to the op.
func (r *runner) replayAfter(op *opResult, f *frame) {
	if r.tr == nil {
		return
	}
	start := time.Now()
	if err := r.replay(f.query); err != nil && op.err == nil {
		op.err = fmt.Errorf("replay %s: %w", f.id, err)
	}
	op.untimed += time.Since(start)
}

// extract: one closed-loop client; each pass runs all 18 frames in a
// seeded order. Passes are never cut short, so every run measures whole
// passes.
func (r *runner) extract(deadline time.Time) ([]opResult, time.Duration, []writeObs) {
	c := r.st.newClient()
	var ops []opResult
	start := time.Now()
	for time.Now().Before(deadline) {
		for _, i := range r.rng.Perm(len(r.fs)) {
			f := r.fs[i]
			op := r.read(c, f, f.ref)
			r.replayAfter(&op, f)
			ops = append(ops, op)
		}
	}
	return ops, time.Since(start), nil
}

// servingOrder returns the frames cheapest first by planner estimate.
func servingOrder(fs []*frame) []*frame {
	out := append([]*frame(nil), fs...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].cost < out[j].cost })
	return out
}

// warmServe requests every frame once so the caches hold the working set.
func (r *runner) warmServe() []opResult {
	c := r.st.newClient()
	var ops []opResult
	for _, f := range r.fs {
		ops = append(ops, r.read(c, f, f.ref))
	}
	return ops
}

// zipfDeck returns one deck of requests over ranks 0..n-1: rank k appears
// in proportion to (k+1)^-s, at least once, in a seeded order. Drawing
// whole decks keeps every run's mix exact, where independent draws would
// vary the share of the rare, expensive ranks from run to run.
func zipfDeck(rng *rand.Rand, n int, s float64, size int) []int {
	weights := make([]float64, n)
	total := 0.0
	for k := range weights {
		weights[k] = math.Pow(float64(k+1), -s)
		total += weights[k]
	}
	var deck []int
	for k, w := range weights {
		for c := max(1, int(math.Round(float64(size)*w/total))); c > 0; c-- {
			deck = append(deck, k)
		}
	}
	rng.Shuffle(len(deck), func(i, j int) { deck[i], deck[j] = deck[j], deck[i] })
	return deck
}

// serve: one closed-loop client working through seeded Zipf decks over
// the frames ordered cheapest first.
func (r *runner) serve(deadline time.Time) ([]opResult, time.Duration, []writeObs) {
	order := servingOrder(r.fs)
	c := r.st.newClient()
	var ops []opResult
	start := time.Now()
	for time.Now().Before(deadline) {
		for _, k := range zipfDeck(r.rng, len(order), zipfS, zipfDeckSize) {
			f := order[k]
			ops = append(ops, r.read(c, f, f.ref))
		}
	}
	if r.tr != nil {
		// Replay each query once after the load, so the sparql layer's
		// stages are measured without disturbing the served traffic.
		for _, f := range r.fs {
			op := opResult{kind: "replay", name: f.id}
			r.replayAfter(&op, f)
			ops = append(ops, op)
		}
	}
	return ops, time.Since(start), nil
}

// --- update workload ---

// batchText renders batch b's triples as an INSERT DATA or DELETE DATA
// request against the YAGO graph.
func (r *runner) batchText(verb string, b int) string {
	rng := rand.New(rand.NewSource(r.seed*7919 + int64(b)))
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s DATA { GRAPH <%s> {\n", verb, datagen.YAGOURI)
	const y = "http://yago-knowledge.org/resource/"
	for i := 0; i < batchActors; i++ {
		s := r.batchActor(b, i)
		fmt.Fprintf(&sb, "%s <%s> <%sActor> .\n", s, rdf.RDFType, y)
		fmt.Fprintf(&sb, "%s <http://www.w3.org/2000/01/rdf-schema#label> %s .\n", s, r.batchLabel(b, i))
		fmt.Fprintf(&sb, "%s <%sisCitizenOf> <%scountry%d> .\n", s, y, y, rng.Intn(40))
		fmt.Fprintf(&sb, "%s <%sactedIn> <%symovie%d> .\n", s, y, y, rng.Intn(3000))
	}
	sb.WriteString("} }")
	return sb.String()
}

func (r *runner) batchActor(b, i int) rdf.Term {
	return rdf.NewIRI(fmt.Sprintf("http://yago-knowledge.org/resource/perfbench_%d_%d_%d", r.seed, b, i))
}

func (r *runner) batchLabel(b, i int) rdf.Term {
	return rdf.NewLiteral(fmt.Sprintf("Perfbench Actor %d-%d-%d", r.seed, b, i))
}

// batchQ11 is the digest of the rows a live batch adds to Q11 (a full
// outer join of DBpedia and YAGO actors on name): one YAGO-only row per
// inserted actor. The batch's labels match no DBpedia actor, so Q4 (the
// inner join) is unchanged.
func (r *runner) batchQ11(b int) digest {
	cols := frameByID(r.fs, "Q11").cols
	rows := make([][]rdf.Term, batchActors)
	for i := range rows {
		row := make([]rdf.Term, len(cols))
		for j, col := range cols {
			switch col {
			case "name":
				row[j] = r.batchLabel(b, i)
			case "yactor":
				row[j] = r.batchActor(b, i)
			}
		}
		rows[i] = row
	}
	return digestOf(cols, func(i int) []rdf.Term { return rows[i] }, len(rows))
}

// expected returns the digest a read of f must match at the current live
// batch set.
func (r *runner) expected(f *frame) digest {
	d := f.ref
	if f.id == "Q11" {
		for _, b := range r.live {
			d = d.add(r.batchQ11(b))
		}
	}
	return d
}

// write performs the next write of the steady cycle: delete the oldest
// live batch when W are live, else insert a fresh one. Rendering the
// request and the traced store observations count as untimed.
func (r *runner) write(c *client.HTTPClient) (opResult, writeObs) {
	prep := time.Now()
	verb, b := "INSERT", r.nextBatch
	if len(r.live) >= liveBatches {
		verb, b = "DELETE", r.live[0]
	}
	text := r.batchText(verb, b)
	res := opResult{kind: "write", name: strings.ToLower(verb)}
	var obs writeObs
	var walBefore int64
	var versionBefore uint64
	if r.tr != nil {
		obs.tombsBefore, walBefore, versionBefore = r.tombstones(), r.walSize(), r.st.store.Version()
	}
	res.untimed = time.Since(prep)
	start := time.Now()
	root := r.tr.start(0, 0, "op.write")
	h := root.child("client.update")
	ur, err := c.WithContext(withSpan(context.Background(), h)).Update(text)
	h.end()
	root.end()
	res.dur = time.Since(start)
	if r.tr != nil {
		after := time.Now()
		obs.dur = res.dur
		obs.tombsAfter = r.tombstones()
		obs.walBytes = r.walSize() - walBefore
		obs.versionBumps = r.st.store.Version() - versionBefore
		res.untimed += time.Since(after)
	}
	if err != nil {
		res.err = err
		return res, obs
	}
	changed := ur.Inserted
	if verb == "DELETE" {
		changed = ur.Deleted
	}
	obs.triples = changed
	if changed != batchSize || ur.Inserted+ur.Deleted != batchSize {
		res.err = fmt.Errorf("%s batch %d: changed %d triples (+%d -%d), want %d",
			verb, b, changed, ur.Inserted, ur.Deleted, batchSize)
	}
	if verb == "INSERT" {
		r.live = append(r.live, b)
		r.nextBatch++
	} else {
		r.live = r.live[1:]
	}
	return res, obs
}

func (r *runner) tombstones() int {
	r.st.store.RLock()
	defer r.st.store.RUnlock()
	return r.st.store.Graph(datagen.YAGOURI).Tombstones()
}

func (r *runner) walSize() int64 {
	n, err := r.st.wal.Size()
	if err != nil {
		return 0
	}
	return n
}

// warmUpdate inserts the first W batches, so the timed phase alternates
// deletes and inserts at a steady live size, and reads Q4 and Q11 once.
func (r *runner) warmUpdate() ([]opResult, error) {
	cols := frameByID(r.fs, "Q11").cols
	if strings.Join(cols, ",") != "actor,name,yactor" {
		return nil, fmt.Errorf("Q11 columns are %v, want actor, name, yactor", cols)
	}
	c := r.st.newClient()
	var ops []opResult
	for len(r.live) < liveBatches {
		res, _ := r.write(c)
		ops = append(ops, res)
		if res.err != nil {
			return ops, nil
		}
	}
	for _, id := range []string{"Q4", "Q11"} {
		f := frameByID(r.fs, id)
		ops = append(ops, r.read(c, f, r.expected(f)))
	}
	return ops, nil
}

// update: one closed-loop client alternating a write and a read through
// the caching server. Reads rotate over Q11, Q4, Q11 from a seeded start,
// so the read median falls inside Q11's latencies rather than on the
// boundary between the two queries.
func (r *runner) update(deadline time.Time) ([]opResult, time.Duration, []writeObs) {
	c := r.st.newClient()
	q4, q11 := frameByID(r.fs, "Q4"), frameByID(r.fs, "Q11")
	reads := []*frame{q11, q4, q11}
	next := r.rng.Intn(len(reads))
	var ops []opResult
	var writes []writeObs
	start := time.Now()
	for time.Now().Before(deadline) {
		w, obs := r.write(c)
		ops = append(ops, w)
		if r.tr != nil {
			writes = append(writes, obs)
		}
		f := reads[next%len(reads)]
		next++
		prep := time.Now()
		want := r.expected(f)
		waited := time.Since(prep)
		op := r.read(c, f, want)
		op.untimed += waited
		r.replayAfter(&op, f)
		ops = append(ops, op)
	}
	return ops, time.Since(start), writes
}

// checkRecovery simulates a crash after the run: it closes the WAL, loads
// the seed's N-Triples into a fresh store, replays the WAL onto it, and
// compares per-graph sizes and the Q4/Q11 answers with the live store.
func (r *runner) checkRecovery(in *input, walPath string) error {
	if err := r.st.closeWAL(); err != nil {
		return fmt.Errorf("closing WAL: %w", err)
	}
	fresh, _, err := loadStore(in)
	if err != nil {
		return err
	}
	w, rec, err := store.OpenWAL(walPath)
	if err != nil {
		return err
	}
	defer w.Close()
	if rec.Damage != nil {
		return fmt.Errorf("recovered WAL is damaged: %v", rec.Damage)
	}
	if _, err := rec.Replay(fresh); err != nil {
		return err
	}
	for _, g := range in.graphs {
		live, got := r.st.store.Graph(g.URI).Len(), fresh.Graph(g.URI).Len()
		if live != got {
			return fmt.Errorf("graph %s: %d triples recovered, %d live", g.URI, got, live)
		}
	}
	liveC, freshC := client.NewDirect(r.ref), client.NewDirect(sparql.NewEngine(fresh))
	for _, id := range []string{"Q4", "Q11"} {
		f := frameByID(r.fs, id)
		a, err := f.rdf.Execute(liveC)
		if err != nil {
			return err
		}
		b, err := f.rdf.Execute(freshC)
		if err != nil {
			return err
		}
		da, db := digestOf(a.Columns(), a.Row, a.Len()), digestOf(b.Columns(), b.Row, b.Len())
		if da != db {
			return fmt.Errorf("%s: recovered store answers %d rows, live %d (bags differ)", id, db.rows, da.rows)
		}
		if want := r.expected(f); da != want {
			return fmt.Errorf("%s: live store answers %d rows, want %d", id, da.rows, want.rows)
		}
	}
	return nil
}
