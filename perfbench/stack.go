package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"rdfframes/internal/client"
	"rdfframes/internal/datagen"
	"rdfframes/internal/obs"
	"rdfframes/internal/rdf"
	"rdfframes/internal/server"
	"rdfframes/internal/sparql"
	"rdfframes/internal/store"
)

// Deployment defaults, as cmd/rdfframes-server applies them.
const (
	queryTimeout = time.Minute
	drainTimeout = 30 * time.Second
	// pageSize is the client pagination chunk, as internal/bench.Env uses.
	pageSize = 100000
	// setupRuns is how many times setup is repeated per run; setup_s and
	// setup_heap_mb report the median.
	setupRuns = 5
)

// graphInput is one generated graph as the program receives it.
type graphInput struct {
	URI     string `json:"uri"`
	Triples int    `json:"triples"`
	Bytes   int    `json:"ntriples_bytes"`
	nt      []byte
}

// input is one seed's dataset: the three graphs serialized as N-Triples,
// in a fixed load order so dictionary ids are reproducible.
type input struct {
	seed   int64
	scale  string
	graphs []graphInput
}

// makeInput generates the seed's three graphs at the given scale ("bench"
// or "small") and serializes them. Seed 1 reproduces the datasets
// internal/datagen's Bench* configurations describe.
func makeInput(seed int64, scale string) (*input, error) {
	dbp, dblp, yago := datagen.BenchDBpedia(), datagen.BenchDBLP(), datagen.BenchYAGO()
	switch scale {
	case "bench":
	case "small":
		dbp, dblp, yago = datagen.SmallDBpedia(), datagen.SmallDBLP(), datagen.SmallYAGO()
	default:
		return nil, fmt.Errorf("unknown scale %q", scale)
	}
	dbp.Seed, yago.Seed, dblp.Seed = seed, seed+1, seed+2
	in := &input{seed: seed, scale: scale}
	for _, g := range []struct {
		uri string
		gen func() []rdf.Triple
	}{
		{datagen.DBpediaURI, func() []rdf.Triple { return datagen.DBpedia(dbp) }},
		{datagen.DBLPURI, func() []rdf.Triple { return datagen.DBLP(dblp) }},
		{datagen.YAGOURI, func() []rdf.Triple { return datagen.YAGO(yago) }},
	} {
		ts := g.gen()
		var buf bytes.Buffer
		if err := rdf.WriteNTriples(&buf, ts); err != nil {
			return nil, fmt.Errorf("serializing %s: %w", g.uri, err)
		}
		in.graphs = append(in.graphs, graphInput{URI: g.uri, Triples: len(ts), Bytes: buf.Len(), nt: buf.Bytes()})
	}
	return in, nil
}

func (in *input) triples() int {
	n := 0
	for _, g := range in.graphs {
		n += g.Triples
	}
	return n
}

// loadStore parses the input into a fresh store through the program's bulk
// loader, returning the time spent loading.
func loadStore(in *input) (*store.Store, time.Duration, error) {
	st := store.New()
	start := time.Now()
	for _, g := range in.graphs {
		n, err := st.LoadNTriplesParallel(g.URI, bytes.NewReader(g.nt), 0)
		if err != nil {
			return nil, 0, fmt.Errorf("loading %s: %w", g.URI, err)
		}
		if n != g.Triples {
			return nil, 0, fmt.Errorf("loading %s: %d triples loaded, %d generated", g.URI, n, g.Triples)
		}
	}
	return st, time.Since(start), nil
}

// stackConfig selects the deployment a workload runs against.
type stackConfig struct {
	// cacheRows, when positive, turns on the plan cache and a result
	// cache of this many row units (the -cache-rows setting).
	cacheRows int64
	// walPath, when set, attaches a fresh write-ahead log at this path.
	walPath string
}

// stack is the deployed read/write path: store, engine, server on a
// loopback listener, and an HTTP client configured as applications use it.
type stack struct {
	store    *store.Store
	engine   *sparql.Engine
	server   *server.Server
	wal      *store.WAL
	endpoint string
	// switches turns on the tracing hooks around the client transport and
	// the server handler; nil tracer means pass-through.
	switches  *tracerSwitch
	transport *http.Transport
	httpc     *http.Client

	loadTime time.Duration
	stop     context.CancelFunc
	served   chan error
}

// startStack loads the input and brings the stack up until the server
// answers /health.
func startStack(in *input, cfg stackConfig) (*stack, error) {
	st, loadTime, err := loadStore(in)
	if err != nil {
		return nil, err
	}
	eng := sparql.NewEngine(st)
	eng.SetTimeout(queryTimeout)
	s := &stack{store: st, engine: eng, loadTime: loadTime, switches: &tracerSwitch{}}
	if cfg.walPath != "" {
		if err := os.Remove(cfg.walPath); err != nil && !errors.Is(err, os.ErrNotExist) {
			return nil, fmt.Errorf("clearing WAL: %w", err)
		}
		w, rec, err := store.OpenWAL(cfg.walPath)
		if err != nil {
			return nil, err
		}
		if len(rec.Batches) != 0 {
			w.Close()
			return nil, fmt.Errorf("WAL %s is not empty", cfg.walPath)
		}
		s.wal = w
		eng.SetWAL(w)
	}
	if cfg.cacheRows > 0 {
		eng.EnableCache(sparql.DefaultPlanCacheEntries, cfg.cacheRows)
	}
	s.server = server.New(eng)
	reg := obs.NewRegistry()
	obs.RegisterRuntimeMetrics(reg)
	s.server.EnableMetrics(reg)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.closeWAL()
		return nil, err
	}
	hs := server.NewHTTPServer(ln.Addr().String(), s.switches.middleware(s.server.Handler()), queryTimeout)
	ctx, stop := context.WithCancel(context.Background())
	s.stop = stop
	s.served = make(chan error, 1)
	go func() { s.served <- s.server.Serve(ctx, hs, ln, drainTimeout) }()

	base := "http://" + ln.Addr().String()
	s.endpoint = base + "/v1/query"
	s.transport = &http.Transport{
		Proxy:       nil,
		DialContext: countingDialer(&net.Dialer{Timeout: 5 * time.Second}),
		// Every workload runs one closed-loop client.
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		IdleConnTimeout:     time.Minute,
	}
	s.httpc = &http.Client{Transport: s.switches.roundTripper(s.transport)}
	resp, err := s.httpc.Get(base + "/health")
	if err != nil {
		s.close()
		return nil, fmt.Errorf("server not answering: %w", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		s.close()
		return nil, fmt.Errorf("server health: %s", resp.Status)
	}
	return s, nil
}

// newClient returns an HTTP client for one closed-loop worker.
func (s *stack) newClient() *client.HTTPClient {
	c := client.NewHTTPClient(s.endpoint, pageSize)
	c.HTTP = s.httpc
	return c
}

func (s *stack) closeWAL() error {
	if s.wal == nil {
		return nil
	}
	err := s.wal.Close()
	s.wal = nil
	return err
}

// close drains the server, waits for it to stop, and closes the WAL.
func (s *stack) close() error {
	var err error
	if s.stop != nil {
		s.stop()
		err = <-s.served
		s.stop = nil
	}
	if s.transport != nil {
		s.transport.CloseIdleConnections()
	}
	if werr := s.closeWAL(); err == nil {
		err = werr
	}
	return err
}

// liveHeap returns the live heap after a forced collection.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// setupResult is the median of setupRuns timed setups.
type setupResult struct {
	seconds   float64
	heapBytes float64
	loadMS    float64
}

// setUp brings the stack up setupRuns times, timing each from the
// N-Triples bytes to a server answering requests (plus the WAL open), and
// keeps the last one running.
func setUp(in *input, cfg stackConfig) (*stack, setupResult, error) {
	var secs, heaps, loads []float64
	var s *stack
	for i := 0; i < setupRuns; i++ {
		if s != nil {
			if err := s.close(); err != nil {
				return nil, setupResult{}, fmt.Errorf("closing setup %d: %w", i, err)
			}
			s = nil
		}
		base := liveHeap()
		start := time.Now()
		var err error
		s, err = startStack(in, cfg)
		if err != nil {
			return nil, setupResult{}, err
		}
		secs = append(secs, time.Since(start).Seconds())
		loads = append(loads, float64(s.loadTime)/float64(time.Millisecond))
		heaps = append(heaps, float64(int64(liveHeap())-int64(base)))
	}
	return s, setupResult{seconds: median(secs), heapBytes: median(heaps), loadMS: median(loads)}, nil
}

// countingConn counts bytes read off a client connection, which is the
// compressed size of the responses it carries.
type countingConn struct {
	net.Conn
	read atomic.Int64
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.read.Add(int64(n))
	return n, err
}

func countingDialer(d *net.Dialer) func(ctx context.Context, network, addr string) (net.Conn, error) {
	return func(ctx context.Context, network, addr string) (net.Conn, error) {
		c, err := d.DialContext(ctx, network, addr)
		if err != nil {
			return nil, err
		}
		return &countingConn{Conn: c}, nil
	}
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for none).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}
