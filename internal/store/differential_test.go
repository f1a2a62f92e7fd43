package store

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"rdfframes/internal/rdf"
)

// TestStoreMatchesReference runs seeded random write sequences — Add,
// AddAll, ApplyBatch (including batches that insert and delete the same
// triple in either order) and DeleteTriples — against small multi-graph
// stores, and after every step checks every read path against a reference
// map[IDTriple]struct{} per graph: Match for all eight bound/unbound
// shapes, Cardinality, MatchParts at several morsels, every sorted run,
// Stats, and the counts and version advance each write reports.
func TestStoreMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			d := newDiffRun(seed)
			for step := 0; step < 60; step++ {
				what := d.step(t)
				d.check(t, fmt.Sprintf("step %d (%s)", step, what))
			}
		})
	}
}

var diffGraphs = []string{"http://d/g0", "http://d/g1", "http://d/g2"}

type diffRun struct {
	rng *rand.Rand
	s   *Store
	ref map[string]map[IDTriple]struct{} // graphs the store should hold
}

func newDiffRun(seed int64) *diffRun {
	return &diffRun{rng: rand.New(rand.NewSource(seed)), s: New(), ref: map[string]map[IDTriple]struct{}{}}
}

// triple draws from a small term pool in which objects and subjects
// overlap, so node sets and 2-bound leaves see real sharing.
func (d *diffRun) triple() rdf.Triple {
	node := func() rdf.Term { return rdf.NewIRI(fmt.Sprintf("http://d/n%d", d.rng.Intn(6))) }
	return rdf.Triple{S: node(), P: rdf.NewIRI(fmt.Sprintf("http://d/p%d", d.rng.Intn(3))), O: node()}
}

func (d *diffRun) graph() string { return diffGraphs[d.rng.Intn(len(diffGraphs))] }

// id encodes a triple the reference way: through the store's dictionary,
// interning as an insert does.
func (d *diffRun) id(t rdf.Triple) IDTriple {
	dict := d.s.Dict()
	return IDTriple{dict.Encode(t.S), dict.Encode(t.P), dict.Encode(t.O)}
}

// apply runs one op against the reference, reporting whether it changed it.
func (d *diffRun) apply(insert bool, g string, t IDTriple) bool {
	set := d.ref[g]
	if insert {
		if set == nil {
			set = map[IDTriple]struct{}{}
			d.ref[g] = set
		}
		if _, ok := set[t]; ok {
			return false
		}
		set[t] = struct{}{}
		return true
	}
	if _, ok := set[t]; !ok {
		return false
	}
	delete(set, t)
	return true
}

// step performs one random write, checking its reported effect against the
// reference, and names it.
func (d *diffRun) step(t *testing.T) string {
	v0 := d.s.Version()
	var changed int
	var what string
	switch d.rng.Intn(4) {
	case 0:
		g, tr := d.graph(), d.triple()
		if err := d.s.Add(g, tr); err != nil {
			t.Fatal(err)
		}
		if d.apply(true, g, d.id(tr)) {
			changed++
		}
		what = "Add"
	case 1:
		g := d.graph()
		ts := make([]rdf.Triple, d.rng.Intn(8))
		for i := range ts {
			ts[i] = d.triple()
		}
		if err := d.s.AddAll(g, ts); err != nil {
			t.Fatal(err)
		}
		for _, tr := range ts {
			if d.apply(true, g, d.id(tr)) {
				changed++
			}
		}
		what = "AddAll"
	case 2:
		var ops []UpdateOp
		for i := d.rng.Intn(10); i >= 0; i-- {
			op := UpdateOp{Insert: d.rng.Intn(2) == 0, Graph: d.graph(), Triple: d.triple()}
			ops = append(ops, op)
			if d.rng.Intn(4) == 0 {
				// The same triple again with the opposite sense.
				ops = append(ops, UpdateOp{Insert: !op.Insert, Graph: op.Graph, Triple: op.Triple})
			}
		}
		res, err := d.s.ApplyBatch(ops)
		if err != nil {
			t.Fatal(err)
		}
		var want ApplyResult
		for _, op := range ops {
			if !op.Insert && d.ref[op.Graph] == nil {
				continue // deletes never create a graph
			}
			if d.apply(op.Insert, op.Graph, d.id(op.Triple)) {
				if op.Insert {
					want.Inserted++
				} else {
					want.Deleted++
				}
			}
		}
		changed = want.Inserted + want.Deleted
		want.Version = v0 + uint64(changed)
		if res != want {
			t.Fatalf("ApplyBatch = %+v, sequential application gives %+v", res, want)
		}
		what = "ApplyBatch"
	default:
		g := d.graph()
		var ts []IDTriple
		for i := d.rng.Intn(6); i >= 0; i-- {
			ts = append(ts, d.id(d.triple()))
		}
		if set := d.ref[g]; len(set) > 0 && d.rng.Intn(2) == 0 {
			for x := range set {
				ts = append(ts, x, x) // present, and repeated
				break
			}
		}
		got := d.s.DeleteTriples(g, ts)
		if d.ref[g] != nil {
			for _, x := range ts {
				if d.apply(false, g, x) {
					changed++
				}
			}
		}
		if got != changed {
			t.Fatalf("DeleteTriples = %d, want %d", got, changed)
		}
		what = "DeleteTriples"
	}
	if adv := d.s.Version() - v0; adv != uint64(changed) {
		t.Fatalf("%s advanced the version by %d, want %d", what, adv, changed)
	}
	return what
}

// check compares every read path of every graph with the reference.
func (d *diffRun) check(t *testing.T, at string) {
	var uris []string
	for g := range d.ref {
		uris = append(uris, g)
	}
	if got := d.s.GraphURIs(); !sameSet(got, uris) {
		t.Fatalf("%s: graphs %v, want %v", at, got, uris)
	}
	maxID := ID(d.s.Dict().Len())
	st := d.s.Stats()
	total := 0
	for g, set := range d.ref {
		graph := d.s.Graph(g)
		total += len(set)
		if graph.Len() != len(set) {
			t.Fatalf("%s: <%s> Len = %d, want %d", at, g, graph.Len(), len(set))
		}
		for shape := 0; shape < 8; shape++ {
			for k := 0; k < 4; k++ {
				pat := d.pattern(shape, set, maxID)
				d.checkPattern(t, at, g, graph, set, pat)
			}
		}
		d.checkRuns(t, at, graph, set, maxID)
		d.checkStats(t, at, g, st.Graphs[g], set)
	}
	if st.TotalTriples != total {
		t.Fatalf("%s: Stats.TotalTriples = %d, want %d", at, st.TotalTriples, total)
	}
	// Matching across all graphs: parts concatenate to the MatchAny stream.
	for _, morsel := range []int{0, 1, 3} {
		var want, got []IDTriple
		d.s.MatchAny(nil, IDTriple{}, func(x IDTriple) bool { want = append(want, x); return true })
		for _, part := range d.s.MatchParts(nil, IDTriple{}, morsel) {
			part(func(x IDTriple) bool { got = append(got, x); return true })
		}
		if !slices.Equal(got, want) {
			t.Fatalf("%s: all-graph MatchParts(morsel %d) = %v, MatchAny = %v", at, morsel, got, want)
		}
	}
}

// pattern builds a pattern of the given shape (bit 0 binds S, bit 1 P,
// bit 2 O), taking bound values from a present triple or, half the time,
// from any id — including one no triple uses.
func (d *diffRun) pattern(shape int, set map[IDTriple]struct{}, maxID ID) IDTriple {
	var src IDTriple
	for x := range set {
		src = x
		break
	}
	pick := func(v ID) ID {
		if v == 0 || d.rng.Intn(2) == 0 {
			return ID(1 + d.rng.Intn(int(maxID)+1))
		}
		return v
	}
	var pat IDTriple
	if shape&1 != 0 {
		pat.S = pick(src.S)
	}
	if shape&2 != 0 {
		pat.P = pick(src.P)
	}
	if shape&4 != 0 {
		pat.O = pick(src.O)
	}
	return pat
}

func matches(pat, x IDTriple) bool {
	return (pat.S == 0 || pat.S == x.S) && (pat.P == 0 || pat.P == x.P) && (pat.O == 0 || pat.O == x.O)
}

func (d *diffRun) checkPattern(t *testing.T, at, g string, graph *Graph, set map[IDTriple]struct{}, pat IDTriple) {
	var want []IDTriple
	for x := range set {
		if matches(pat, x) {
			want = append(want, x)
		}
	}
	var got []IDTriple
	graph.Match(pat, func(x IDTriple) bool { got = append(got, x); return true })
	sorted := slices.Clone(got)
	slices.SortFunc(sorted, cmpTriple)
	slices.SortFunc(want, cmpTriple)
	if !slices.Equal(sorted, want) {
		t.Fatalf("%s: <%s> Match(%v) = %v, want %v", at, g, pat, got, want)
	}
	if c := graph.Cardinality(pat); c != len(want) {
		t.Fatalf("%s: <%s> Cardinality(%v) = %d, want %d", at, g, pat, c, len(want))
	}
	for _, morsel := range []int{0, 1, 3} {
		var parts []IDTriple
		for _, part := range d.s.MatchParts([]string{g}, pat, morsel) {
			part(func(x IDTriple) bool { parts = append(parts, x); return true })
		}
		if !slices.Equal(parts, got) {
			t.Fatalf("%s: <%s> MatchParts(%v, morsel %d) = %v, Match = %v", at, g, pat, morsel, parts, got)
		}
	}
}

// checkRuns compares every run of the graph with the sorted distinct
// projection of the reference.
func (d *diffRun) checkRuns(t *testing.T, at string, graph *Graph, set map[IDTriple]struct{}, maxID ID) {
	project := func(keep func(IDTriple) bool, pick func(IDTriple) ID) Run {
		var out Run
		for x := range set {
			if keep(x) {
				out = append(out, pick(x))
			}
		}
		slices.Sort(out)
		return slices.Compact(out)
	}
	same := func(name string, got, want Run) {
		if len(got) == 0 && len(want) == 0 {
			return
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: %s = %v, want %v", at, name, got, want)
		}
	}
	subj := func(x IDTriple) ID { return x.S }
	obj := func(x IDTriple) ID { return x.O }
	nodes := project(func(IDTriple) bool { return true }, subj)
	nodes = append(nodes, project(func(IDTriple) bool { return true }, obj)...)
	slices.Sort(nodes)
	same("Nodes", graph.Nodes(), slices.Compact(nodes))
	for a := ID(1); a <= maxID+1; a++ {
		same(fmt.Sprint("SubjectsOfPred ", a), graph.SubjectsOfPred(a), project(func(x IDTriple) bool { return x.P == a }, subj))
		same(fmt.Sprint("ObjectsOfPred ", a), graph.ObjectsOfPred(a), project(func(x IDTriple) bool { return x.P == a }, obj))
		for b := ID(1); b <= maxID+1; b++ {
			same(fmt.Sprint("ObjectsSP ", a, b), graph.ObjectsSP(a, b), project(func(x IDTriple) bool { return x.S == a && x.P == b }, obj))
			same(fmt.Sprint("SubjectsPO ", a, b), graph.SubjectsPO(a, b), project(func(x IDTriple) bool { return x.P == a && x.O == b }, subj))
		}
	}
}

// checkStats compares one graph's catalog entry with counts off the
// reference.
func (d *diffRun) checkStats(t *testing.T, at, g string, gs *GraphStats, set map[IDTriple]struct{}) {
	if gs == nil {
		t.Fatalf("%s: no stats for <%s>", at, g)
	}
	subjects, objects := map[ID]bool{}, map[ID]bool{}
	type pair struct{ p, v ID }
	preds := map[ID]PredicateStats{}
	ps, po := map[pair]bool{}, map[pair]bool{}
	for x := range set {
		subjects[x.S], objects[x.O] = true, true
		st := preds[x.P]
		st.Triples++
		if !ps[pair{x.P, x.S}] {
			ps[pair{x.P, x.S}] = true
			st.DistinctSubjects++
		}
		if !po[pair{x.P, x.O}] {
			po[pair{x.P, x.O}] = true
			st.DistinctObjects++
		}
		preds[x.P] = st
	}
	want := GraphStats{Triples: len(set), DistinctSubjects: len(subjects), DistinctObjects: len(objects), Predicates: preds}
	if !reflect.DeepEqual(*gs, want) {
		t.Fatalf("%s: <%s> stats = %+v, want %+v", at, g, *gs, want)
	}
}

func cmpTriple(a, b IDTriple) int {
	switch {
	case a.S != b.S:
		return int(a.S) - int(b.S)
	case a.P != b.P:
		return int(a.P) - int(b.P)
	default:
		return int(a.O) - int(b.O)
	}
}

func sameSet(a, b []string) bool {
	a, b = slices.Clone(a), slices.Clone(b)
	slices.Sort(a)
	slices.Sort(b)
	return slices.Equal(a, b)
}
