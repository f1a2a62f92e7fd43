package sparql

import (
	"context"
	"fmt"
	"reflect"
	"sort"
	"testing"
	"time"

	"rdfframes/internal/rdf"
	"rdfframes/internal/store"
)

const testGraph = "http://test.org/graph"

// movieStore builds a small movie graph:
//
//	m1 starring a1, a2;  m2 starring a1;  m3 starring a2;  m4 starring a3
//	a1 born US, a2 born UK, a3 born US
//	m1, m2 have genre; m1..m3 have titles; a1 has an award
func movieStore(t testing.TB) *store.Store {
	t.Helper()
	s := store.New()
	ex := func(n string) rdf.Term { return rdf.NewIRI("http://ex/" + n) }
	add := func(s1, p, o rdf.Term) {
		if err := s.Add(testGraph, rdf.Triple{S: s1, P: p, O: o}); err != nil {
			t.Fatal(err)
		}
	}
	starring, born, genre, title, award :=
		ex("starring"), ex("birthPlace"), ex("genre"), ex("title"), ex("award")
	add(ex("m1"), starring, ex("a1"))
	add(ex("m1"), starring, ex("a2"))
	add(ex("m2"), starring, ex("a1"))
	add(ex("m3"), starring, ex("a2"))
	add(ex("m4"), starring, ex("a3"))
	add(ex("a1"), born, ex("US"))
	add(ex("a2"), born, ex("UK"))
	add(ex("a3"), born, ex("US"))
	add(ex("m1"), genre, ex("Drama"))
	add(ex("m2"), genre, ex("Comedy"))
	add(ex("m1"), title, rdf.NewLiteral("First"))
	add(ex("m2"), title, rdf.NewLiteral("Second"))
	add(ex("m3"), title, rdf.NewLiteral("Third"))
	add(ex("a1"), award, ex("Oscar"))
	return s
}

// runQuery evaluates src on Do's direct path and returns its solutions.
func runQuery(e *Engine, src string) (*Results, error) {
	resp, err := e.Do(context.Background(), Request{Query: src})
	if err != nil {
		return nil, err
	}
	return resp.Results, nil
}

func queryRows(t testing.TB, e *Engine, src string) [][]string {
	t.Helper()
	res, err := runQuery(e, src)
	if err != nil {
		t.Fatalf("Query(%s): %v", src, err)
	}
	out := make([][]string, len(res.Rows))
	for i, row := range res.Rows {
		r := make([]string, len(row))
		for j, term := range row {
			r[j] = term.String()
		}
		out[i] = r
	}
	sort.Slice(out, func(i, j int) bool { return fmt.Sprint(out[i]) < fmt.Sprint(out[j]) })
	return out
}

func TestEvalBasicBGP(t *testing.T) {
	e := NewEngine(movieStore(t))
	rows := queryRows(t, e, `SELECT ?m ?a WHERE { ?m <http://ex/starring> ?a }`)
	if len(rows) != 5 {
		t.Fatalf("got %d rows, want 5", len(rows))
	}
}

func TestEvalJoinTwoPatterns(t *testing.T) {
	e := NewEngine(movieStore(t))
	rows := queryRows(t, e, `SELECT ?m ?a ?c WHERE {
	  ?m <http://ex/starring> ?a .
	  ?a <http://ex/birthPlace> ?c .
	}`)
	if len(rows) != 5 {
		t.Fatalf("got %d rows, want 5", len(rows))
	}
}

func TestEvalFilterEquality(t *testing.T) {
	e := NewEngine(movieStore(t))
	rows := queryRows(t, e, `SELECT ?a WHERE {
	  ?a <http://ex/birthPlace> ?c .
	  FILTER ( ?c = <http://ex/US> )
	}`)
	if len(rows) != 2 {
		t.Fatalf("got %d rows, want 2", len(rows))
	}
}

func TestEvalOptional(t *testing.T) {
	e := NewEngine(movieStore(t))
	rows := queryRows(t, e, `SELECT ?m ?g WHERE {
	  ?m <http://ex/title> ?t .
	  OPTIONAL { ?m <http://ex/genre> ?g }
	}`)
	if len(rows) != 3 {
		t.Fatalf("got %d rows, want 3", len(rows))
	}
	unboundG := 0
	for _, r := range rows {
		if r[1] == "" {
			unboundG++
		}
	}
	if unboundG != 1 {
		t.Fatalf("unbound genre rows = %d, want 1 (m3 has no genre)", unboundG)
	}
}

func TestEvalUnion(t *testing.T) {
	e := NewEngine(movieStore(t))
	rows := queryRows(t, e, `SELECT ?x WHERE {
	  { ?x <http://ex/genre> <http://ex/Drama> } UNION { ?x <http://ex/genre> <http://ex/Comedy> }
	}`)
	if len(rows) != 2 {
		t.Fatalf("got %d rows, want 2", len(rows))
	}
}

func TestEvalGroupByHaving(t *testing.T) {
	e := NewEngine(movieStore(t))
	rows := queryRows(t, e, `SELECT ?a (COUNT(?m) AS ?n) WHERE {
	  ?m <http://ex/starring> ?a
	} GROUP BY ?a HAVING ( COUNT(?m) >= 2 )`)
	if len(rows) != 2 {
		t.Fatalf("got %d groups, want 2 (a1 and a2 have 2 movies)", len(rows))
	}
	for _, r := range rows {
		if r[1] != `"2"^^<http://www.w3.org/2001/XMLSchema#integer>` {
			t.Fatalf("count = %s", r[1])
		}
	}
}

func TestEvalCountDistinct(t *testing.T) {
	e := NewEngine(movieStore(t))
	rows := queryRows(t, e, `SELECT (COUNT(DISTINCT ?a) AS ?n) WHERE { ?m <http://ex/starring> ?a }`)
	if len(rows) != 1 || rows[0][0] != `"3"^^<http://www.w3.org/2001/XMLSchema#integer>` {
		t.Fatalf("rows = %v", rows)
	}
}

func TestEvalAggregatesOverNumbers(t *testing.T) {
	s := store.New()
	p := rdf.NewIRI("http://ex/v")
	for i, v := range []int64{10, 20, 30} {
		sub := rdf.NewIRI(fmt.Sprintf("http://ex/s%d", i))
		if err := s.Add(testGraph, rdf.Triple{S: sub, P: p, O: rdf.NewInteger(v)}); err != nil {
			t.Fatal(err)
		}
	}
	e := NewEngine(s)
	rows := queryRows(t, e, `SELECT (SUM(?v) AS ?s) (AVG(?v) AS ?a) (MIN(?v) AS ?mn) (MAX(?v) AS ?mx) WHERE { ?x <http://ex/v> ?v }`)
	want := []string{
		`"60"^^<http://www.w3.org/2001/XMLSchema#integer>`,
		`"20"^^<http://www.w3.org/2001/XMLSchema#decimal>`,
		`"10"^^<http://www.w3.org/2001/XMLSchema#integer>`,
		`"30"^^<http://www.w3.org/2001/XMLSchema#integer>`,
	}
	if !reflect.DeepEqual(rows[0], want) {
		t.Fatalf("got %v, want %v", rows[0], want)
	}
}

func TestEvalSubqueryWithHaving(t *testing.T) {
	e := NewEngine(movieStore(t))
	// Actors with >= 2 movies, then their awards (optional).
	rows := queryRows(t, e, `SELECT ?a ?w WHERE {
	  { SELECT ?a (COUNT(?m) AS ?n) WHERE { ?m <http://ex/starring> ?a } GROUP BY ?a HAVING (COUNT(?m) >= 2) }
	  OPTIONAL { ?a <http://ex/award> ?w }
	}`)
	if len(rows) != 2 {
		t.Fatalf("got %d rows, want 2", len(rows))
	}
	awards := 0
	for _, r := range rows {
		if r[1] != "" {
			awards++
		}
	}
	if awards != 1 {
		t.Fatalf("award rows = %d, want 1", awards)
	}
}

func TestEvalOrderLimitOffset(t *testing.T) {
	e := NewEngine(movieStore(t))
	res, err := runQuery(e, `SELECT ?t WHERE { ?m <http://ex/title> ?t } ORDER BY ?t LIMIT 2 OFFSET 1`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("got %d rows", len(res.Rows))
	}
	if res.Rows[0][0].Value != "Second" || res.Rows[1][0].Value != "Third" {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestEvalOrderByDesc(t *testing.T) {
	e := NewEngine(movieStore(t))
	res, err := runQuery(e, `SELECT ?t WHERE { ?m <http://ex/title> ?t } ORDER BY DESC(?t)`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Value != "Third" {
		t.Fatalf("first row = %v", res.Rows[0])
	}
}

func TestEvalDistinct(t *testing.T) {
	e := NewEngine(movieStore(t))
	all := queryRows(t, e, `SELECT ?a WHERE { ?m <http://ex/starring> ?a }`)
	dist := queryRows(t, e, `SELECT DISTINCT ?a WHERE { ?m <http://ex/starring> ?a }`)
	if len(all) != 5 || len(dist) != 3 {
		t.Fatalf("all=%d dist=%d", len(all), len(dist))
	}
}

func TestEvalBagSemanticsPreservesDuplicates(t *testing.T) {
	e := NewEngine(movieStore(t))
	// Projecting only the actor from starring keeps one row per triple.
	rows := queryRows(t, e, `SELECT ?a WHERE { ?m <http://ex/starring> ?a }`)
	if len(rows) != 5 {
		t.Fatalf("bag semantics violated: %d rows", len(rows))
	}
}

func TestEvalRegexAndStr(t *testing.T) {
	e := NewEngine(movieStore(t))
	rows := queryRows(t, e, `SELECT ?a WHERE {
	  ?a <http://ex/birthPlace> ?c FILTER regex(str(?c), "US")
	}`)
	if len(rows) != 2 {
		t.Fatalf("got %d rows, want 2", len(rows))
	}
}

func TestEvalIsIRIFilter(t *testing.T) {
	e := NewEngine(movieStore(t))
	rows := queryRows(t, e, `SELECT * WHERE { ?s ?p ?o FILTER ( isIRI(?o) ) }`)
	// 14 triples total, 3 have literal objects (titles).
	if len(rows) != 11 {
		t.Fatalf("got %d rows, want 11", len(rows))
	}
}

func TestEvalSameVariableTwiceInPattern(t *testing.T) {
	s := store.New()
	self := rdf.NewIRI("http://ex/self")
	a, b := rdf.NewIRI("http://ex/a"), rdf.NewIRI("http://ex/b")
	s.Add(testGraph, rdf.Triple{S: a, P: self, O: a})
	s.Add(testGraph, rdf.Triple{S: a, P: self, O: b})
	e := NewEngine(s)
	rows := queryRows(t, e, `SELECT ?x WHERE { ?x <http://ex/self> ?x }`)
	if len(rows) != 1 || rows[0][0] != "<http://ex/a>" {
		t.Fatalf("rows = %v", rows)
	}
}

func TestEvalGraphBlock(t *testing.T) {
	s := store.New()
	p := rdf.NewIRI("http://ex/p")
	s.Add("http://g1", rdf.Triple{S: rdf.NewIRI("http://ex/x"), P: p, O: rdf.NewLiteral("in-g1")})
	s.Add("http://g2", rdf.Triple{S: rdf.NewIRI("http://ex/x"), P: p, O: rdf.NewLiteral("in-g2")})
	e := NewEngine(s)
	rows := queryRows(t, e, `SELECT ?o WHERE { GRAPH <http://g2> { ?x <http://ex/p> ?o } }`)
	if len(rows) != 1 || rows[0][0] != `"in-g2"` {
		t.Fatalf("rows = %v", rows)
	}
}

func TestEvalFromRestrictsGraph(t *testing.T) {
	s := store.New()
	p := rdf.NewIRI("http://ex/p")
	s.Add("http://g1", rdf.Triple{S: rdf.NewIRI("http://ex/x"), P: p, O: rdf.NewLiteral("1")})
	s.Add("http://g2", rdf.Triple{S: rdf.NewIRI("http://ex/y"), P: p, O: rdf.NewLiteral("2")})
	e := NewEngine(s)
	rows := queryRows(t, e, `SELECT ?s FROM <http://g1> WHERE { ?s <http://ex/p> ?o }`)
	if len(rows) != 1 || rows[0][0] != "<http://ex/x>" {
		t.Fatalf("rows = %v", rows)
	}
}

func TestEvalBindRename(t *testing.T) {
	e := NewEngine(movieStore(t))
	rows := queryRows(t, e, `SELECT ?nc WHERE {
	  ?a <http://ex/birthPlace> ?c BIND(?c AS ?nc)
	}`)
	if len(rows) != 3 {
		t.Fatalf("got %d rows, want 3", len(rows))
	}
}

func TestEvalSelectExprProjection(t *testing.T) {
	e := NewEngine(movieStore(t))
	rows := queryRows(t, e, `SELECT (str(?t) AS ?s) WHERE { <http://ex/m1> <http://ex/title> ?t }`)
	if len(rows) != 1 || rows[0][0] != `"First"` {
		t.Fatalf("rows = %v", rows)
	}
}

func TestEvalEmptyGroupAggregates(t *testing.T) {
	e := NewEngine(movieStore(t))
	rows := queryRows(t, e, `SELECT (COUNT(?x) AS ?n) WHERE { ?x <http://ex/nonexistent> ?y }`)
	if len(rows) != 1 || rows[0][0] != `"0"^^<http://www.w3.org/2001/XMLSchema#integer>` {
		t.Fatalf("COUNT over empty = %v", rows)
	}
}

func TestEvalFullOuterJoinShape(t *testing.T) {
	// (A OPTIONAL B) UNION (B OPTIONAL A) — the paper's full outer join.
	e := NewEngine(movieStore(t))
	rows := queryRows(t, e, `SELECT ?m ?g ?t WHERE {
	  { ?m <http://ex/genre> ?g OPTIONAL { ?m <http://ex/title> ?t } }
	  UNION
	  { ?m <http://ex/title> ?t OPTIONAL { ?m <http://ex/genre> ?g } }
	}`)
	// Genre side: m1, m2 (both with titles). Title side: m1,m2,m3 (m3 no genre).
	if len(rows) != 5 {
		t.Fatalf("got %d rows, want 5", len(rows))
	}
}

func TestEvalTimeout(t *testing.T) {
	s := store.New()
	p := rdf.NewIRI("http://ex/p")
	for i := 0; i < 400; i++ {
		s.Add(testGraph, rdf.Triple{
			S: rdf.NewIRI(fmt.Sprintf("http://ex/s%d", i)), P: p,
			O: rdf.NewIRI(fmt.Sprintf("http://ex/o%d", i%7)),
		})
	}
	e := NewEngine(s)
	e.SetTimeout(time.Nanosecond)
	_, err := runQuery(e, `SELECT * WHERE { ?a <http://ex/p> ?x . ?b <http://ex/p> ?y . ?c <http://ex/p> ?z }`)
	if err != ErrTimeout {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
}

func TestEvalUnboundVarInFilterDropsRow(t *testing.T) {
	e := NewEngine(movieStore(t))
	rows := queryRows(t, e, `SELECT ?m WHERE {
	  ?m <http://ex/title> ?t .
	  OPTIONAL { ?m <http://ex/genre> ?g }
	  FILTER ( ?g = <http://ex/Drama> )
	}`)
	if len(rows) != 1 {
		t.Fatalf("got %d rows, want 1", len(rows))
	}
}

func TestEvalCrossProduct(t *testing.T) {
	e := NewEngine(movieStore(t))
	rows := queryRows(t, e, `SELECT ?g ?w WHERE {
	  ?m <http://ex/genre> ?g .
	  ?a <http://ex/award> ?w .
	}`)
	if len(rows) != 2 { // 2 genres x 1 award
		t.Fatalf("got %d rows, want 2", len(rows))
	}
}

func TestEvalStarColumnOrder(t *testing.T) {
	e := NewEngine(movieStore(t))
	res, err := runQuery(e, `SELECT * WHERE { ?m <http://ex/starring> ?a . ?a <http://ex/birthPlace> ?c }`)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Vars, []string{"m", "a", "c"}) {
		t.Fatalf("vars = %v", res.Vars)
	}
}
