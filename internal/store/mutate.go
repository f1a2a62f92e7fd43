package store

import (
	"fmt"

	"rdfframes/internal/rdf"
)

// Mutation batches: the write-side entry point SPARQL UPDATE compiles to.
// An UpdateOp is one ground insert or delete against one named graph; an
// ApplyBatch call applies a whole batch under a single write-lock hold, so
// readers admitted concurrently (who bracket evaluation with RLock/RUnlock)
// observe either the entire batch or none of it — never a torn prefix. The
// store version advances exactly once per changed triple, all at the end of
// the batch, so no version value ever corresponds to a mid-batch state.

// UpdateOp is one ground mutation: Insert true adds the triple to the named
// graph, false deletes it.
type UpdateOp struct {
	Insert bool
	Graph  string
	Triple rdf.Triple
}

// ApplyResult reports what a mutation batch changed.
type ApplyResult struct {
	// Inserted / Deleted count the triples the batch actually changed;
	// duplicate inserts and deletes of absent triples are no-ops (RDF set
	// semantics) and are not counted.
	Inserted int
	Deleted  int
	// Version is the store version after the batch. Equal to the pre-batch
	// version when the batch was a complete no-op.
	Version uint64
}

// ApplyBatch applies a mutation batch atomically: all ops under one write
// lock, one version advance per changed triple issued at the end, one stats
// epoch check. Invalid triples are rejected before any op is applied, so a
// batch either applies completely or not at all.
//
// The ops are counted as if applied one by one — an insert counts when the
// triple is absent at that point of the batch, a delete when it is present
// — and each touched graph then takes the batch's net effect in one write.
// Deletes of absent triples and duplicate inserts are silent no-ops; a batch
// where every op is a no-op leaves the version unchanged (and cached results
// stay exactly valid, because the logical content did not move).
func (s *Store) ApplyBatch(ops []UpdateOp) (ApplyResult, error) {
	for i, op := range ops {
		if !op.Triple.Valid() {
			return ApplyResult{}, fmt.Errorf("store: invalid triple %s in batch op %d", op.Triple, i)
		}
		if op.Graph == "" {
			return ApplyResult{}, fmt.Errorf("store: empty graph URI in batch op %d", i)
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var res ApplyResult
	newGraph := false
	// present tracks, per touched graph, whether each triple the batch
	// names is in the graph after the ops so far.
	present := make(map[*Graph]map[IDTriple]bool, 2)
	var touched []*Graph
	for _, op := range ops {
		var g *Graph
		var t IDTriple
		if op.Insert {
			var created bool
			g, created = s.ensureGraph(op.Graph)
			newGraph = newGraph || created
			t = IDTriple{s.dict.Encode(op.Triple.S), s.dict.Encode(op.Triple.P), s.dict.Encode(op.Triple.O)}
		} else {
			g = s.graphs[op.Graph]
			// A triple whose terms were never interned cannot be in the store.
			sID, ok1 := s.dict.Lookup(op.Triple.S)
			pID, ok2 := s.dict.Lookup(op.Triple.P)
			oID, ok3 := s.dict.Lookup(op.Triple.O)
			if g == nil || !ok1 || !ok2 || !ok3 {
				continue
			}
			t = IDTriple{sID, pID, oID}
		}
		state := present[g]
		if state == nil {
			state = make(map[IDTriple]bool)
			present[g] = state
			touched = append(touched, g)
		}
		in, seen := state[t]
		if !seen {
			in = g.ix.contains(t)
		}
		switch {
		case op.Insert && !in:
			res.Inserted++
		case !op.Insert && in:
			res.Deleted++
		}
		state[t] = op.Insert
	}
	for _, g := range touched {
		var ins, del []IDTriple
		for t, in := range present[g] {
			switch was := g.ix.contains(t); {
			case in && !was:
				ins = append(ins, t)
			case !in && was:
				del = append(del, t)
			}
		}
		s.total += g.write(ins, del)
	}
	if delta := res.Inserted + res.Deleted; delta > 0 {
		// One advance per changed triple, issued after the whole batch: the
		// version a reader observes either predates the batch or includes all
		// of it, which is what keys the result cache exactly.
		s.version.Add(uint64(delta))
		s.maybeBumpEpochLocked(newGraph)
	}
	res.Version = s.version.Load()
	return res, nil
}

// DeleteTriples removes the given dictionary-encoded triples from the named
// graph in one write, reporting how many distinct triples were present. The
// version advances once per removed triple, like ApplyBatch. Used by the
// update evaluator's DELETE WHERE path, whose bindings are already in id
// space.
func (s *Store) DeleteTriples(graphURI string, triples []IDTriple) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	g := s.graphs[graphURI]
	if g == nil {
		return 0
	}
	seen := make(map[IDTriple]struct{}, len(triples))
	var del []IDTriple
	for _, t := range triples {
		if _, dup := seen[t]; !dup && g.ix.contains(t) {
			seen[t] = struct{}{}
			del = append(del, t)
		}
	}
	n := -g.write(nil, del)
	if n > 0 {
		s.total -= n
		s.version.Add(uint64(n))
		s.maybeBumpEpochLocked(false)
	}
	return n
}
