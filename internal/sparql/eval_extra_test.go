package sparql

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"

	"rdfframes/internal/rdf"
	"rdfframes/internal/store"
)

func TestEvalOptionalContainingGraphBlock(t *testing.T) {
	s := store.New()
	p := rdf.NewIRI("http://ex/p")
	q := rdf.NewIRI("http://ex/q")
	x := rdf.NewIRI("http://ex/x")
	s.Add("http://g1", rdf.Triple{S: x, P: p, O: rdf.NewLiteral("base")})
	s.Add("http://g2", rdf.Triple{S: x, P: q, O: rdf.NewLiteral("extra")})
	e := NewEngine(s)
	rows := queryRows(t, e, `SELECT * WHERE {
	  GRAPH <http://g1> { ?s <http://ex/p> ?v }
	  OPTIONAL { GRAPH <http://g2> { ?s <http://ex/q> ?w } }
	}`)
	if len(rows) != 1 || rows[0][2] != `"extra"` {
		t.Fatalf("rows = %v", rows)
	}
}

func TestEvalOrderByExpression(t *testing.T) {
	s := store.New()
	p := rdf.NewIRI("http://ex/v")
	for i, v := range []int64{5, -9, 3} {
		s.Add(testGraph, rdf.Triple{S: rdf.NewIRI(fmt.Sprintf("http://ex/s%d", i)), P: p, O: rdf.NewInteger(v)})
	}
	e := NewEngine(s)
	res, err := runQuery(e, `SELECT ?v WHERE { ?s <http://ex/v> ?v } ORDER BY DESC(abs(?v))`)
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := res.Rows[0][0].AsInt(); n != -9 {
		t.Fatalf("first = %v", res.Rows[0][0])
	}
}

func TestEvalNestedSubqueryProjectionScopes(t *testing.T) {
	e := NewEngine(movieStore(t))
	// The inner query's un-projected variables must not leak out.
	res, err := runQuery(e, `SELECT * WHERE {
	  { SELECT ?a WHERE { ?m <http://ex/starring> ?a } }
	}`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Vars) != 1 || res.Vars[0] != "a" {
		t.Fatalf("vars = %v (inner ?m must not leak)", res.Vars)
	}
}

func TestEvalFilterPushdownEquivalence(t *testing.T) {
	st := movieStore(t)
	query := `SELECT * WHERE {
	  ?m <http://ex/starring> ?a .
	  ?a <http://ex/birthPlace> ?c .
	  FILTER ( ?c = <http://ex/US> )
	}`
	plain := NewEngine(st)
	// The reference applies every filter after its whole BGP, in the
	// greedy join order: no pushdown and no planner.
	disabled := NewEngine(st)
	disabled.DisablePushdown = true
	disabled.DisableOptimizer = true
	req := Request{Query: query, JSON: true}
	r1, err := plain.Do(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := disabled.Do(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Rows != 3 || !bytes.Equal(r1.Body, r2.Body) {
		t.Fatalf("pushdown changed results (%d vs %d rows):\n%s\nvs\n%s", r1.Rows, r2.Rows, r1.Body, r2.Body)
	}
}

func TestEvalDeterministicOrderAcrossRuns(t *testing.T) {
	st := movieStore(t)
	e := NewEngine(st)
	query := `SELECT * WHERE { ?m <http://ex/starring> ?a . ?a <http://ex/birthPlace> ?c }`
	first, err := runQuery(e, query)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		again, err := runQuery(e, query)
		if err != nil {
			t.Fatal(err)
		}
		if len(again.Rows) != len(first.Rows) {
			t.Fatal("row count changed")
		}
		for j := range first.Rows {
			for k := range first.Rows[j] {
				if first.Rows[j][k] != again.Rows[j][k] {
					t.Fatalf("row order not deterministic at %d,%d (pagination would break)", j, k)
				}
			}
		}
	}
}

func TestEngineConcurrentReaders(t *testing.T) {
	st := movieStore(t)
	e := NewEngine(st)
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := runQuery(e, `SELECT * WHERE { ?m <http://ex/starring> ?a }`)
			if err != nil {
				errs <- err
				return
			}
			if len(res.Rows) != 5 {
				errs <- fmt.Errorf("got %d rows", len(res.Rows))
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestEvalHavingWithoutProjectingAggregate(t *testing.T) {
	e := NewEngine(movieStore(t))
	// HAVING references an aggregate that is not in the projection.
	rows := queryRows(t, e, `SELECT ?a WHERE {
	  ?m <http://ex/starring> ?a
	} GROUP BY ?a HAVING ( COUNT(?m) >= 2 )`)
	if len(rows) != 2 {
		t.Fatalf("groups = %d, want 2", len(rows))
	}
}

func TestEvalUnionWithDisjointVars(t *testing.T) {
	e := NewEngine(movieStore(t))
	rows := queryRows(t, e, `SELECT * WHERE {
	  { ?m <http://ex/genre> ?g } UNION { ?a <http://ex/award> ?w }
	}`)
	if len(rows) != 3 { // 2 genres + 1 award
		t.Fatalf("rows = %d, want 3", len(rows))
	}
}
