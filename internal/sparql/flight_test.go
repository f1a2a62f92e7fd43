package sparql

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

const flightQuery = `SELECT ?s ?o WHERE { ?s <http://ex/p> ?o }`

// flightReq asks for flightQuery's SPARQL JSON body on the serving path.
var flightReq = Request{Query: flightQuery, Serving: true, JSON: true}

// gate is an eval hook that blocks evaluations until released, so tests can
// pile up concurrent requests behind one cold evaluation deterministically.
type gate struct {
	mu       sync.Mutex
	release  chan struct{}
	arrivals chan struct{} // one tick per evaluation that reached the gate
}

func newGate() *gate {
	return &gate{release: make(chan struct{}), arrivals: make(chan struct{}, 64)}
}

func (g *gate) hook(ctx context.Context) error {
	g.mu.Lock()
	release := g.release
	g.mu.Unlock()
	g.arrivals <- struct{}{}
	select {
	case <-release:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (g *gate) open() {
	g.mu.Lock()
	defer g.mu.Unlock()
	select {
	case <-g.release:
	default:
		close(g.release)
	}
}

// TestStampedeSingleEvaluation: N concurrent cold requests for the same
// (version, query, graphs) key must cost exactly one evaluation, and every
// caller must receive byte-identical bodies.
func TestStampedeSingleEvaluation(t *testing.T) {
	eng := NewEngine(cacheTestStore(t))
	eng.EnableCache(DefaultPlanCacheEntries, DefaultResultCacheRows)
	g := newGate()
	eng.SetEvalHook(g.hook)

	const n = 16
	bodies := make([][]byte, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := eng.Do(context.Background(), flightReq)
			if errs[i] = err; err == nil {
				bodies[i] = resp.Body
			}
		}(i)
	}
	// Exactly one evaluation reaches the gate; release it once all callers
	// have had a chance to pile up.
	<-g.arrivals
	time.Sleep(20 * time.Millisecond)
	g.open()
	wg.Wait()

	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if string(bodies[i]) != string(bodies[0]) {
			t.Fatalf("caller %d body differs from caller 0", i)
		}
	}
	if got := eng.Evaluations(); got != 1 {
		t.Fatalf("evaluations = %d, want exactly 1 for %d concurrent cold requests", got, n)
	}
	fs := eng.CacheStats().Singleflight
	if fs.Leaders != 1 || fs.Waiters != n-1 {
		t.Fatalf("singleflight stats = %+v, want 1 leader / %d waiters", fs, n-1)
	}
}

// TestFlightWaiterHonorsOwnContext: a waiter whose context is cancelled
// leaves immediately with its own context error while the evaluation (and
// the other callers) proceed untouched.
func TestFlightWaiterHonorsOwnContext(t *testing.T) {
	eng := NewEngine(cacheTestStore(t))
	eng.EnableCache(DefaultPlanCacheEntries, DefaultResultCacheRows)
	g := newGate()
	eng.SetEvalHook(g.hook)

	leaderDone := make(chan error, 1)
	go func() {
		_, err := eng.Do(context.Background(), flightReq)
		leaderDone <- err
	}()
	<-g.arrivals // leader's evaluation is in flight

	ctx, cancel := context.WithCancel(context.Background())
	waiterDone := make(chan error, 1)
	go func() {
		_, err := eng.Do(ctx, flightReq)
		waiterDone <- err
	}()
	time.Sleep(10 * time.Millisecond) // let the waiter join the flight
	cancel()
	select {
	case err := <-waiterDone:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("waiter error = %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("cancelled waiter did not return")
	}

	g.open()
	if err := <-leaderDone; err != nil {
		t.Fatalf("leader failed after waiter left: %v", err)
	}
	if got := eng.Evaluations(); got != 1 {
		t.Fatalf("evaluations = %d, want 1", got)
	}
}

// TestFlightLeaderCancelPromotesWaiter: the caller that started the
// evaluation disconnects mid-flight; the evaluation must keep running for
// the remaining waiter, which receives the full result — byte-identical to
// an unfaulted run — from exactly one evaluation.
func TestFlightLeaderCancelPromotesWaiter(t *testing.T) {
	eng := NewEngine(cacheTestStore(t))
	eng.EnableCache(DefaultPlanCacheEntries, DefaultResultCacheRows)

	// The unfaulted reference body, computed on a separate engine over the
	// same store so the flight engine's cache stays cold.
	ref := NewEngine(eng.Store)
	ref.EnableCache(DefaultPlanCacheEntries, DefaultResultCacheRows)
	want, err := ref.Do(context.Background(), flightReq)
	if err != nil {
		t.Fatal(err)
	}

	g := newGate()
	eng.SetEvalHook(g.hook)

	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	leaderDone := make(chan error, 1)
	go func() {
		_, err := eng.Do(leaderCtx, flightReq)
		leaderDone <- err
	}()
	<-g.arrivals // evaluation started by the leader

	type outcome struct {
		resp *Response
		err  error
	}
	waiterDone := make(chan outcome, 1)
	go func() {
		resp, err := eng.Do(context.Background(), flightReq)
		waiterDone <- outcome{resp, err}
	}()
	time.Sleep(10 * time.Millisecond) // waiter joins the flight
	cancelLeader()
	if err := <-leaderDone; !errors.Is(err, context.Canceled) {
		t.Fatalf("leader error = %v, want context.Canceled", err)
	}

	g.open()
	select {
	case got := <-waiterDone:
		if got.err != nil {
			t.Fatalf("promoted waiter failed: %v", got.err)
		}
		if string(got.resp.Body) != string(want.Body) {
			t.Fatal("promoted waiter's body differs from the unfaulted run")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("waiter never completed after leader cancellation")
	}
	if got := eng.Evaluations(); got != 1 {
		t.Fatalf("evaluations = %d, want 1 (the leader's, finished for the waiter)", got)
	}
}

// TestFlightAbandonedByAll: when every caller leaves, the evaluation is
// aborted — and a later request starts fresh and succeeds.
func TestFlightAbandonedByAll(t *testing.T) {
	eng := NewEngine(cacheTestStore(t))
	eng.EnableCache(DefaultPlanCacheEntries, DefaultResultCacheRows)
	g := newGate()
	eng.SetEvalHook(g.hook)

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := eng.Do(ctx, flightReq)
		done <- err
	}()
	<-g.arrivals
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("abandoned caller error = %v, want context.Canceled", err)
	}

	// The aborted evaluation never filled the cache; a fresh request leads
	// a new flight and succeeds.
	g.open()
	resp, err := eng.Do(context.Background(), flightReq)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Body) == 0 || resp.Info.Hit {
		t.Fatalf("fresh request after abandonment: hit=%v bodyLen=%d", resp.Info.Hit, len(resp.Body))
	}
}

// TestEstimateCost: the planner's estimate must exist for plannable
// queries, scale with pattern cost, and surface parse errors.
func TestEstimateCost(t *testing.T) {
	eng := NewEngine(cacheTestStore(t))
	cost, ok, err := eng.EstimateCost(flightQuery)
	if err != nil || !ok {
		t.Fatalf("EstimateCost: cost=%v ok=%v err=%v", cost, ok, err)
	}
	if cost <= 0 {
		t.Fatalf("cost = %v, want > 0", cost)
	}

	// A two-pattern join over the same predicate costs more than one scan.
	big, ok, err := eng.EstimateCost(`SELECT ?s ?o ?n WHERE { ?s <http://ex/p> ?o . ?s <http://ex/name> ?n }`)
	if err != nil || !ok {
		t.Fatalf("EstimateCost join: ok=%v err=%v", ok, err)
	}
	if big <= cost {
		t.Fatalf("join cost %v not greater than single-scan cost %v", big, cost)
	}

	if _, _, err := eng.EstimateCost(`SELECT WHERE`); err == nil {
		t.Fatal("parse error not surfaced")
	}

	eng.DisableOptimizer = true
	if _, ok, err := eng.EstimateCost(flightQuery); err != nil || ok {
		t.Fatalf("optimizer off: ok=%v err=%v, want no estimate", ok, err)
	}
}

// TestFlightConcurrentMixedKeys hammers the flight group with many keys and
// cancellations under the race detector.
func TestFlightConcurrentMixedKeys(t *testing.T) {
	eng := NewEngine(cacheTestStore(t))
	eng.EnableCache(DefaultPlanCacheEntries, DefaultResultCacheRows)
	queries := []string{
		flightQuery,
		`SELECT ?s ?n WHERE { ?s <http://ex/name> ?n }`,
		`SELECT ?s WHERE { ?s <http://ex/p> 3 }`,
	}
	var wg sync.WaitGroup
	var failures atomic.Int32
	for i := 0; i < 24; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				q := queries[(i+j)%len(queries)]
				ctx, cancel := context.WithCancel(context.Background())
				if (i+j)%5 == 0 {
					go func() {
						time.Sleep(time.Duration(j%3) * time.Millisecond)
						cancel()
					}()
				}
				_, err := eng.Do(ctx, Request{Query: q, Serving: true, JSON: true})
				if err != nil && !errors.Is(err, context.Canceled) {
					failures.Add(1)
				}
				cancel()
			}
		}(i)
	}
	wg.Wait()
	if failures.Load() != 0 {
		t.Fatalf("%d unexpected errors", failures.Load())
	}
}
