// Package store implements an in-memory RDF quad store: a dictionary that
// encodes terms as dense integer ids plus, per graph, one sorted index of
// four permutations (SPO, PSO, POS, OSP) that answers every triple-pattern
// access path the SPARQL evaluator needs. The store is the substitute for
// the paper's Virtuoso engine.
//
// Mutations (Add, AddAll, the Load* methods, bulk/snapshot installs,
// ApplyBatch, DeleteTriples) serialize on an internal write lock, rebuild
// the touched graphs' indexes in one step each, and bump a monotonic
// version counter; readers that must not observe a store mid-mutation (the
// query evaluator) bracket their work with RLock/RUnlock. Version() lets caches key results
// to an exact store state: any mutation moves the version, so a cached
// entry from an older version can never be served as current.
package store

import (
	"fmt"
	"io"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"rdfframes/internal/rdf"
)

// ID is a dictionary-encoded term identifier. 0 is never assigned.
type ID uint32

// MaxTerms is the maximum number of terms a Dictionary can intern: ids are
// uint32 and id 0 is reserved as the unbound sentinel.
const MaxTerms = 1<<32 - 1

// Dictionary interns terms to dense ids and back.
type Dictionary struct {
	byTerm map[rdf.Term]ID
	byID   []rdf.Term // byID[0] is a placeholder; ids start at 1
	limit  uint64     // id-space cap; 0 means MaxTerms (lowered only in tests)
}

// NewDictionary returns an empty dictionary.
func NewDictionary() *Dictionary {
	return &Dictionary{
		byTerm: make(map[rdf.Term]ID, 1024),
		byID:   make([]rdf.Term, 1, 1024),
	}
}

// NewDictionaryFromTerms rebuilds a dictionary whose ids are 1..len(terms)
// in slice order, as recorded by a snapshot. It rejects unbound terms,
// duplicates, and term counts that exceed the uint32 id space, all of which
// indicate a corrupted term table.
func NewDictionaryFromTerms(terms []rdf.Term) (*Dictionary, error) {
	if uint64(len(terms)) > MaxTerms {
		return nil, fmt.Errorf("store: term table holds %d terms, exceeding the %d id space", len(terms), uint64(MaxTerms))
	}
	d := &Dictionary{
		byTerm: make(map[rdf.Term]ID, len(terms)),
		byID:   make([]rdf.Term, 1, len(terms)+1),
	}
	for _, t := range terms {
		if !t.IsBound() {
			return nil, fmt.Errorf("store: unbound term at id %d in term table", len(d.byID))
		}
		if _, dup := d.byTerm[t]; dup {
			return nil, fmt.Errorf("store: duplicate term %s in term table", t)
		}
		id := ID(len(d.byID))
		d.byTerm[t] = id
		d.byID = append(d.byID, t)
	}
	return d, nil
}

func (d *Dictionary) maxTerms() uint64 {
	if d.limit != 0 {
		return d.limit
	}
	return MaxTerms
}

// Encode interns t, returning its id (allocating one if new). It panics if
// the dictionary is full: the id space is uint32, and wrapping past it would
// silently alias distinct terms.
func (d *Dictionary) Encode(t rdf.Term) ID {
	if id, ok := d.byTerm[t]; ok {
		return id
	}
	if uint64(len(d.byID)) > d.maxTerms() {
		panic(fmt.Sprintf("store: dictionary overflow: cannot intern more than %d terms into the uint32 id space", d.maxTerms()))
	}
	id := ID(len(d.byID))
	d.byTerm[t] = id
	d.byID = append(d.byID, t)
	return id
}

// Terms returns the interned terms in id order (id 1 first). The returned
// slice aliases the dictionary's internal table and must not be modified.
func (d *Dictionary) Terms() []rdf.Term { return d.byID[1:] }

// Lookup returns the id of t if it is already interned.
func (d *Dictionary) Lookup(t rdf.Term) (ID, bool) {
	id, ok := d.byTerm[t]
	return id, ok
}

// Decode returns the term for id. It panics on an id the dictionary never
// issued, which would indicate store corruption.
func (d *Dictionary) Decode(id ID) rdf.Term {
	if id == 0 || int(id) >= len(d.byID) {
		panic(fmt.Sprintf("store: decode of unknown id %d", id))
	}
	return d.byID[id]
}

// Len returns the number of interned terms.
func (d *Dictionary) Len() int { return len(d.byID) - 1 }

// IDTriple is a dictionary-encoded triple.
type IDTriple struct {
	S, P, O ID
}

// Graph is one named graph: a set of encoded triples behind one immutable
// index (see index.go). Iteration over any access path follows the order of
// the permutation that serves it, so it is deterministic: repeated queries
// return rows in the same order, which the client's LIMIT/OFFSET
// pagination relies on.
type Graph struct {
	ix *index
}

func newGraph() *Graph { return &Graph{ix: newIndex(nil)} }

// Len returns the number of triples in the graph.
func (g *Graph) Len() int { return len(g.ix.spo.ids) }

// Triples returns every triple in SPO order as a fresh slice.
func (g *Graph) Triples() []IDTriple { return g.ix.spo.all() }

// Tombstones is always 0: deletes are physical, so no deleted triple is
// ever held in the index. It remains for callers that report the figure.
func (g *Graph) Tombstones() int { return 0 }

// Store holds a dictionary and a set of named graphs.
type Store struct {
	// mu serializes mutations against each other and against readers that
	// take RLock. Plain accessor reads (Len, Graph, ...) are unlocked: they
	// are safe once loading is quiescent, and concurrent-with-writes readers
	// (the query evaluator) hold RLock around whole read transactions.
	mu sync.RWMutex
	// version counts successful mutations; see Version.
	version atomic.Uint64
	// statsEpoch is the planning epoch (see StatsEpoch); epochTotal and
	// total (both guarded by mu) drive its distribution-shift rule, and
	// statsCache memoizes the last Stats snapshot per store version.
	statsEpoch atomic.Uint64
	epochTotal int
	total      int
	statsCache statsCachePtr

	dict   *Dictionary
	graphs map[string]*Graph
	order  []string // graph URIs in insertion order
}

// New returns an empty store.
func New() *Store {
	return &Store{dict: NewDictionary(), graphs: make(map[string]*Graph)}
}

// NewWithDictionary returns an empty store over a pre-built dictionary, the
// entry point for snapshot reconstruction.
func NewWithDictionary(d *Dictionary) *Store {
	return &Store{dict: d, graphs: make(map[string]*Graph)}
}

// Dict exposes the store's dictionary.
func (s *Store) Dict() *Dictionary { return s.dict }

// Version returns the store's mutation epoch: a counter that advances on
// every mutation that changes the store (per triple inserted, per bulk
// graph installed). Two reads returning the same version with no write
// lock held in between are guaranteed to have observed identical data, so
// a cache entry recorded at version v is exact for as long as Version()
// still returns v. Safe to call without any lock.
func (s *Store) Version() uint64 { return s.version.Load() }

// RLock begins a read transaction: mutations are blocked until the
// matching RUnlock. The query evaluator brackets each evaluation with
// RLock/RUnlock so a query never observes a store mid-mutation.
func (s *Store) RLock() { s.mu.RLock() }

// RUnlock ends a read transaction started with RLock.
func (s *Store) RUnlock() { s.mu.RUnlock() }

// Graph returns the named graph, or nil if absent.
func (s *Store) Graph(uri string) *Graph { return s.graphs[uri] }

// GraphURIs returns all graph URIs in insertion order.
func (s *Store) GraphURIs() []string {
	out := make([]string, len(s.order))
	copy(out, s.order)
	return out
}

// ensureGraph returns the graph for uri, creating it if needed; created
// reports whether a new graph was installed.
func (s *Store) ensureGraph(uri string) (g *Graph, created bool) {
	g, ok := s.graphs[uri]
	if !ok {
		g = newGraph()
		s.graphs[uri] = g
		s.order = append(s.order, uri)
		created = true
	}
	return g, created
}

// Add inserts one triple into the named graph (duplicates are ignored,
// matching RDF set semantics for a graph).
func (s *Store) Add(graphURI string, t rdf.Triple) error {
	return s.AddAll(graphURI, []rdf.Triple{t})
}

// AddAll inserts all triples into the named graph in one write. An invalid
// triple stops the encoding: the triples before it are inserted and the
// error is returned.
func (s *Store) AddAll(graphURI string, triples []rdf.Triple) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	ts := make([]IDTriple, 0, len(triples))
	var err error
	for _, t := range triples {
		var id IDTriple
		if id, err = s.encode(t); err != nil {
			break
		}
		ts = append(ts, id)
	}
	s.insertLocked(graphURI, ts)
	return err
}

// encode interns t's terms. Callers hold the write lock.
func (s *Store) encode(t rdf.Triple) (IDTriple, error) {
	if !t.Valid() {
		return IDTriple{}, fmt.Errorf("store: invalid triple %s", t)
	}
	return IDTriple{s.dict.Encode(t.S), s.dict.Encode(t.P), s.dict.Encode(t.O)}, nil
}

// insertLocked adds ts (duplicates and present triples allowed) to the
// named graph through the one write step, creating the graph if ts is
// non-empty. The version advances once per triple actually inserted.
func (s *Store) insertLocked(graphURI string, ts []IDTriple) {
	if len(ts) == 0 {
		return
	}
	g, created := s.ensureGraph(graphURI)
	n := g.write(slices.DeleteFunc(ts, g.ix.contains), nil)
	s.version.Add(uint64(n))
	s.total += n
	s.maybeBumpEpochLocked(created)
}

// write is the one step every mutation of a graph goes through: it builds
// the index with ins added and del removed and swaps it in, returning the
// change in triple count. del must hold only present triples; ins may
// repeat triples. Callers hold the write lock.
func (g *Graph) write(ins, del []IDTriple) int {
	if len(ins) == 0 && len(del) == 0 {
		return 0
	}
	before := g.Len()
	g.ix = g.ix.apply(ins, del)
	return g.Len() - before
}

// BulkGraph installs a complete graph from dictionary-encoded triples in
// one step: ids are checked against the dictionary, and the index build
// sorts the triples and drops duplicates. The graph must be absent or
// empty. BulkGraph only reads the triples slice.
func (s *Store) BulkGraph(graphURI string, triples []IDTriple) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	maxID := ID(s.dict.Len())
	for _, t := range triples {
		if t.S == 0 || t.S > maxID || t.P == 0 || t.P > maxID || t.O == 0 || t.O > maxID {
			return fmt.Errorf("store: triple (%d %d %d) references an id outside the %d-term dictionary", t.S, t.P, t.O, maxID)
		}
	}
	if g := s.graphs[graphURI]; g != nil && g.Len() > 0 {
		return fmt.Errorf("store: bulk load into non-empty graph <%s>", graphURI)
	}
	g := &Graph{ix: newIndex(triples)}
	if s.graphs[graphURI] == nil {
		s.order = append(s.order, graphURI)
	}
	s.graphs[graphURI] = g
	// One bump per triple installed (so the version tracks data volume like
	// the incremental path) plus one for the graph install itself, which
	// changes GraphURIs even when the graph is empty.
	s.version.Add(uint64(g.Len()) + 1)
	s.total += g.Len()
	s.maybeBumpEpochLocked(true)
	return nil
}

// LoadNTriples parses an N-Triples document from r into the named graph and
// returns the number of triples parsed. On a parse error the triples before
// it are loaded and the error is returned.
func (s *Store) LoadNTriples(graphURI string, r io.Reader) (int, error) {
	return s.load(graphURI, rdf.NewNTriplesReader(r).Read)
}

// LoadTurtle parses a Turtle document from r into the named graph and
// returns the number of triples parsed, like LoadNTriples.
func (s *Store) LoadTurtle(graphURI string, r io.Reader) (int, error) {
	return s.load(graphURI, rdf.NewTurtleReader(r).Read)
}

// load encodes every triple read and inserts them in one write.
func (s *Store) load(graphURI string, read func() (rdf.Triple, error)) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var ts []IDTriple
	for {
		t, err := read()
		if err == nil {
			var id IDTriple
			if id, err = s.encode(t); err == nil {
				ts = append(ts, id)
				continue
			}
		}
		s.insertLocked(graphURI, ts)
		if err == io.EOF {
			err = nil
		}
		return len(ts), err
	}
}

// LoadNTriplesParallel parses an N-Triples document with a pool of parser
// workers, encodes the parsed chunks in document order from this (single
// writer) goroutine, and inserts them in one write at the end. workers <= 0
// uses one worker per available CPU. It returns the number of triples
// encoded.
func (s *Store) LoadNTriplesParallel(graphURI string, r io.Reader, workers int) (int, error) {
	var ts []IDTriple
	// Encoding takes the lock per chunk rather than for the whole load, so
	// a long ingest does not starve concurrent readers for its full
	// duration; only the final index build holds it throughout.
	err := rdf.ParseNTriplesParallel(r, workers, func(batch []rdf.Triple) error {
		s.mu.Lock()
		defer s.mu.Unlock()
		for _, t := range batch {
			id, err := s.encode(t)
			if err != nil {
				return err
			}
			ts = append(ts, id)
		}
		return nil
	})
	s.mu.Lock()
	defer s.mu.Unlock()
	s.insertLocked(graphURI, ts)
	return len(ts), err
}

// Len returns the total number of triples across all graphs.
func (s *Store) Len() int {
	n := 0
	for _, g := range s.graphs {
		n += g.Len()
	}
	return n
}

// Match streams every triple in the named graph matching the pattern, where
// a zero (unbound) ID matches anything. The callback returns false to stop.
// Graphs absent from the store match nothing.
func (s *Store) Match(graphURI string, pat IDTriple, yield func(IDTriple) bool) {
	g := s.graphs[graphURI]
	if g == nil {
		return
	}
	g.Match(pat, yield)
}

// MatchAny streams matches from each of the given graphs in order. An empty
// graph list matches across all graphs in the store.
func (s *Store) MatchAny(graphURIs []string, pat IDTriple, yield func(IDTriple) bool) {
	if len(graphURIs) == 0 {
		graphURIs = s.order
	}
	stopped := false
	for _, uri := range graphURIs {
		if stopped {
			return
		}
		s.Match(uri, pat, func(t IDTriple) bool {
			if !yield(t) {
				stopped = true
				return false
			}
			return true
		})
	}
}

// Match streams every triple in the graph matching the pattern, where a
// zero ID is a wildcard, in the order of the permutation serving the
// pattern's bound positions. The callback returns false to stop iteration.
func (g *Graph) Match(pat IDTriple, yield func(IDTriple) bool) {
	ix := g.ix
	switch {
	case pat.S != 0 && pat.P != 0 && pat.O != 0:
		if ix.contains(pat) {
			yield(pat)
		}
	case pat.S != 0 && pat.P != 0:
		for _, o := range ix.spo.leaf(pat.S, pat.P) {
			if !yield(IDTriple{pat.S, pat.P, o}) {
				return
			}
		}
	case pat.P != 0 && pat.O != 0:
		for _, sub := range ix.pos.leaf(pat.P, pat.O) {
			if !yield(IDTriple{sub, pat.P, pat.O}) {
				return
			}
		}
	case pat.S != 0 && pat.O != 0:
		for _, p := range ix.osp.leaf(pat.O, pat.S) {
			if !yield(IDTriple{pat.S, p, pat.O}) {
				return
			}
		}
	default:
		x, lo, hi := ix.rangeOf(pat)
		x.walk(lo, hi, yield)
	}
}

// Count returns the number of triples in the graph matching the pattern.
func (g *Graph) Count(pat IDTriple) int { return g.Cardinality(pat) }

// Cardinality returns the exact number of matches for pat; every access
// path is a range, so this is a range length.
func (g *Graph) Cardinality(pat IDTriple) int {
	ix := g.ix
	switch {
	case pat.S != 0 && pat.P != 0 && pat.O != 0:
		if ix.contains(pat) {
			return 1
		}
		return 0
	case pat.S != 0 && pat.P != 0:
		return len(ix.spo.leaf(pat.S, pat.P))
	case pat.P != 0 && pat.O != 0:
		return len(ix.pos.leaf(pat.P, pat.O))
	case pat.S != 0 && pat.O != 0:
		return len(ix.osp.leaf(pat.O, pat.S))
	default:
		_, lo, hi := ix.rangeOf(pat)
		return hi - lo
	}
}

// Cardinality sums the estimate over the given graphs (all graphs if empty).
func (s *Store) Cardinality(graphURIs []string, pat IDTriple) int {
	if len(graphURIs) == 0 {
		graphURIs = s.order
	}
	n := 0
	for _, uri := range graphURIs {
		if g := s.graphs[uri]; g != nil {
			n += g.Cardinality(pat)
		}
	}
	return n
}

// ClassCount is an entry in a class distribution: an entity class and the
// number of instances typed with it.
type ClassCount struct {
	Class rdf.Term
	Count int
}

// Classes returns the rdf:type class distribution of the named graph sorted
// by descending count, supporting the paper's exploration operators.
func (s *Store) Classes(graphURI string) []ClassCount {
	g := s.graphs[graphURI]
	if g == nil {
		return nil
	}
	typeID, ok := s.dict.Lookup(rdf.NewIRI(rdf.RDFType))
	if !ok {
		return nil
	}
	var out []ClassCount
	for _, o := range g.ix.pos.keysOf(typeID) {
		out = append(out, ClassCount{Class: s.dict.Decode(o), Count: len(g.ix.pos.leaf(typeID, o))})
	}
	sortClassCounts(out)
	return out
}

// PredicateCount is an entry in a predicate distribution.
type PredicateCount struct {
	Predicate rdf.Term
	Count     int
}

// Predicates returns the predicate usage distribution of the named graph
// sorted by descending count.
func (s *Store) Predicates(graphURI string) []PredicateCount {
	g := s.graphs[graphURI]
	if g == nil {
		return nil
	}
	var out []PredicateCount
	g.ix.pso.eachKey(func(p ID, lo, hi int) {
		out = append(out, PredicateCount{Predicate: s.dict.Decode(p), Count: hi - lo})
	})
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Predicate.Value < out[j].Predicate.Value
	})
	return out
}

func sortClassCounts(cc []ClassCount) {
	sort.Slice(cc, func(i, j int) bool {
		if cc[i].Count != cc[j].Count {
			return cc[i].Count > cc[j].Count
		}
		return cc[i].Class.Value < cc[j].Class.Value
	})
}
