package sparql

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"rdfframes/internal/rdf"
	"rdfframes/internal/store"
)

// wcojStore builds a single-graph store with a constant-object star shape:
// 1000 subjects carry name; subjects 0..499 are typed Actor, subjects
// 250..749 have nationality US, so the star's hub intersection is 250
// subjects. The other halves carry different constants, keeping the
// per-predicate distinct-subject counts high enough that independent
// selectivity multiplication would collapse the binary estimate (the
// correlation-cap scenario) while the WCOJ level model sees the small hub.
func wcojStore(t *testing.T) *store.Store {
	t.Helper()
	st := store.New()
	add := func(s, p, o rdf.Term) {
		t.Helper()
		if err := st.Add("http://g", rdf.Triple{S: s, P: p, O: o}); err != nil {
			t.Fatal(err)
		}
	}
	typeP := rdf.NewIRI("http://p/type")
	natP := rdf.NewIRI("http://p/nat")
	nameP := rdf.NewIRI("http://p/name")
	knowsP := rdf.NewIRI("http://p/knows")
	actor := rdf.NewIRI("http://c/Actor")
	film := rdf.NewIRI("http://c/Film")
	us := rdf.NewIRI("http://c/US")
	ca := rdf.NewIRI("http://c/CA")
	for i := 0; i < 1000; i++ {
		s := rdf.NewIRI(fmt.Sprintf("http://s/%d", i))
		if i < 500 {
			add(s, typeP, actor)
		} else {
			add(s, typeP, film)
		}
		if i >= 250 && i < 750 {
			add(s, natP, us)
		} else {
			add(s, natP, ca)
		}
		add(s, nameP, rdf.NewLiteral(fmt.Sprintf("name%d", i)))
		// A sparse social edge on a 999-ring with step 333: three hops
		// return to the start, so length-3 cycles actually close.
		if i%3 == 0 && i < 999 {
			add(s, knowsP, rdf.NewIRI(fmt.Sprintf("http://s/%d", (i+333)%999)))
		}
	}
	return st
}

const wcojStarQuery = `SELECT * FROM <http://g> WHERE {
	?s <http://p/type> <http://c/Actor> .
	?s <http://p/nat> <http://c/US> .
	?s <http://p/name> ?n
}`

// ?a's degree is 3 (two knows edges plus a type), closing a length-3 cycle.
const wcojCycleQuery = `SELECT * FROM <http://g> WHERE {
	?a <http://p/knows> ?b .
	?b <http://p/knows> ?c .
	?c <http://p/knows> ?a .
	?a <http://p/type> <http://c/Actor> .
	?a <http://p/name> ?n
}`

// assertSameResults evaluates src on both engines and requires identical
// variable lists and row contents — the byte-identity contract.
func assertSameResults(t *testing.T, src string, a, b *Engine) *Results {
	t.Helper()
	ra, err := runQuery(a, src)
	if err != nil {
		t.Fatalf("wcoj engine: %v", err)
	}
	rb, err := runQuery(b, src)
	if err != nil {
		t.Fatalf("baseline engine: %v", err)
	}
	if !reflect.DeepEqual(ra.Vars, rb.Vars) {
		t.Fatalf("vars diverge: %v vs %v", ra.Vars, rb.Vars)
	}
	if !reflect.DeepEqual(ra.Rows, rb.Rows) {
		t.Fatalf("rows diverge: %d vs %d rows", len(ra.Rows), len(rb.Rows))
	}
	return ra
}

func TestWCOJStarMatchesBinary(t *testing.T) {
	st := wcojStore(t)
	for _, workers := range []int{1, 4} {
		eng := NewEngine(st)
		eng.Parallelism = workers
		base := NewEngine(st)
		base.Parallelism = workers
		base.DisableWCOJ = true

		res := assertSameResults(t, wcojStarQuery, eng, base)
		if len(res.Rows) != 250 {
			t.Fatalf("star query returned %d rows, want 250", len(res.Rows))
		}
		if eng.wcojStats.segments.Load() == 0 {
			t.Fatalf("workers=%d: star query did not execute a WCOJ segment", workers)
		}
		if eng.wcojStats.seeks.Load() == 0 {
			t.Fatalf("workers=%d: WCOJ ran without any run seeks", workers)
		}
		if base.wcojStats.segments.Load() != 0 {
			t.Fatalf("workers=%d: DisableWCOJ engine still ran WCOJ", workers)
		}
	}
}

func TestWCOJCycleMatchesBinary(t *testing.T) {
	st := wcojStore(t)
	for _, workers := range []int{1, 4} {
		eng := NewEngine(st)
		eng.Parallelism = workers
		base := NewEngine(st)
		base.Parallelism = workers
		base.DisableWCOJ = true
		res := assertSameResults(t, wcojCycleQuery, eng, base)
		if len(res.Rows) == 0 {
			t.Fatal("cycle query returned no rows; the dataset should close cycles")
		}
	}
}

func TestWCOJWithFiltersAndProjection(t *testing.T) {
	st := wcojStore(t)
	eng := NewEngine(st)
	base := NewEngine(st)
	base.DisableWCOJ = true
	// A filter over a segment variable plus DISTINCT over a projection that
	// prunes the hub: exercises the post-segment filter application and the
	// end-of-segment column drop.
	src := `SELECT DISTINCT ?n FROM <http://g> WHERE {
		?s <http://p/type> <http://c/Actor> .
		?s <http://p/nat> <http://c/US> .
		?s <http://p/name> ?n
		FILTER(?n != "name250")
	}`
	res := assertSameResults(t, src, eng, base)
	if len(res.Rows) != 249 {
		t.Fatalf("filtered star returned %d rows, want 249", len(res.Rows))
	}
}

func TestWCOJExplainShowsOperator(t *testing.T) {
	st := wcojStore(t)
	eng := NewEngine(st)
	rep, err := eng.Explain(wcojStarQuery)
	if err != nil {
		t.Fatal(err)
	}
	text := rep.PlanText()
	if !strings.Contains(text, "wcoj ?s") {
		t.Fatalf("plan lacks wcoj operator:\n%s", text)
	}
	if !strings.Contains(text, "intersect ?s") {
		t.Fatalf("plan lacks per-level intersect nodes:\n%s", text)
	}
	// The hub level must carry both an estimate and a recorded actual (250
	// surviving subjects).
	if !strings.Contains(text, "actual=250") {
		t.Fatalf("plan lacks per-level actual rows:\n%s", text)
	}

	// The ablation engine plans the same query without the operator.
	base := NewEngine(st)
	base.DisableWCOJ = true
	rep, err = base.Explain(wcojStarQuery)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(rep.PlanText(), "wcoj") {
		t.Fatalf("DisableWCOJ plan still contains wcoj:\n%s", rep.PlanText())
	}
}

func TestWCOJDeclinesMultiGraphAndBoundSegments(t *testing.T) {
	st := wcojStore(t)
	if err := st.Add("http://g2", rdf.Triple{
		S: rdf.NewIRI("http://s/0"),
		P: rdf.NewIRI("http://p/type"),
		O: rdf.NewIRI("http://c/Actor"),
	}); err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(st)

	// Two FROM graphs: bag multiplicity makes the set-enumerating walk
	// unsound, so the planner must keep the binary pipeline.
	multi := `SELECT * FROM <http://g> FROM <http://g2> WHERE {
		?s <http://p/type> <http://c/Actor> .
		?s <http://p/nat> <http://c/US> .
		?s <http://p/name> ?n
	}`
	rep, err := eng.Explain(multi)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(rep.PlanText(), "wcoj") {
		t.Fatalf("multi-graph segment planned as wcoj:\n%s", rep.PlanText())
	}

	// A BIND before the star pre-binds nothing the star reads, but it makes
	// the segment start from a non-empty bound set; the planner declines.
	boundSeg := `SELECT * FROM <http://g> WHERE {
		BIND("x" AS ?tag)
		?s <http://p/type> <http://c/Actor> .
		?s <http://p/nat> <http://c/US> .
		?s <http://p/name> ?n
	}`
	rep, err = eng.Explain(boundSeg)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(rep.PlanText(), "wcoj") {
		t.Fatalf("pre-bound segment planned as wcoj:\n%s", rep.PlanText())
	}

	base := NewEngine(st)
	base.DisableWCOJ = true
	assertSameResults(t, multi, eng, base)
	assertSameResults(t, boundSeg, eng, base)
}
