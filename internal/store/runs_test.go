package store

import (
	"fmt"
	"testing"

	"rdfframes/internal/rdf"
)

func runGraph(t *testing.T) *Graph {
	t.Helper()
	s := New()
	// Insertion order deliberately scrambles ids so the derived runs must
	// really sort: objects 30, 10, 20 under one (s,p); three subjects for p1.
	triples := []rdf.Triple{
		{S: rdf.NewIRI("http://ex/s2"), P: rdf.NewIRI("http://ex/p1"), O: rdf.NewIRI("http://ex/o30")},
		{S: rdf.NewIRI("http://ex/s2"), P: rdf.NewIRI("http://ex/p1"), O: rdf.NewIRI("http://ex/o10")},
		{S: rdf.NewIRI("http://ex/s2"), P: rdf.NewIRI("http://ex/p1"), O: rdf.NewIRI("http://ex/o20")},
		{S: rdf.NewIRI("http://ex/s1"), P: rdf.NewIRI("http://ex/p1"), O: rdf.NewIRI("http://ex/o10")},
		{S: rdf.NewIRI("http://ex/s3"), P: rdf.NewIRI("http://ex/p1"), O: rdf.NewIRI("http://ex/o20")},
		{S: rdf.NewIRI("http://ex/s1"), P: rdf.NewIRI("http://ex/p2"), O: rdf.NewIRI("http://ex/o10")},
	}
	if err := s.AddAll("http://ex/g", triples); err != nil {
		t.Fatal(err)
	}
	return s.Graph("http://ex/g")
}

func assertRun(t *testing.T, r Run) {
	t.Helper()
	for i := 1; i < len(r); i++ {
		if r[i-1] >= r[i] {
			t.Fatalf("run not strictly ascending at %d: %v", i, r)
		}
	}
}

func TestRunsSortedAndDuplicateFree(t *testing.T) {
	g := runGraph(t)
	var p1, p2 ID
	// Resolve ids by matching: the predicate with three distinct subjects
	// is p1, the one with a single subject p2.
	for p := ID(1); p <= 8; p++ {
		subjects := map[ID]bool{}
		g.Match(IDTriple{P: p}, func(t IDTriple) bool { subjects[t.S] = true; return true })
		switch len(subjects) {
		case 3:
			p1 = p
		case 1:
			p2 = p
		}
	}
	if p1 == 0 || p2 == 0 {
		t.Fatalf("did not resolve predicate ids (p1=%d p2=%d)", p1, p2)
	}

	subs := g.SubjectsOfPred(p1)
	if len(subs) != 3 {
		t.Fatalf("SubjectsOfPred(p1) = %v, want 3 subjects", subs)
	}
	assertRun(t, subs)

	objs := g.ObjectsOfPred(p1)
	if len(objs) != 3 {
		t.Fatalf("ObjectsOfPred(p1) = %v, want 3 objects", objs)
	}
	assertRun(t, objs)

	// One subject (s2) has three objects under p1, inserted out of order; its
	// run must come out sorted.
	var r Run
	for _, s := range subs {
		if g.Cardinality(IDTriple{S: s, P: p1}) == 3 {
			r = g.ObjectsSP(s, p1)
		}
	}
	if len(r) != 3 {
		t.Fatalf("ObjectsSP = %v, want 3 objects", r)
	}
	assertRun(t, r)

	for _, o := range objs {
		assertRun(t, g.SubjectsPO(p1, o))
	}

	// Runs are views of the index: the same memory on every call.
	again := g.SubjectsOfPred(p1)
	if &again[0] != &subs[0] {
		t.Fatal("SubjectsOfPred copied instead of serving the index")
	}
	_ = p2
}

func TestRunsEmpty(t *testing.T) {
	g := runGraph(t)
	if r := g.SubjectsOfPred(9999); len(r) != 0 {
		t.Fatalf("SubjectsOfPred(absent) = %v, want empty", r)
	}
	if r := g.ObjectsSP(9999, 9999); r != nil {
		t.Fatalf("ObjectsSP(absent) = %v, want nil", r)
	}
	it := NewRunIterator(nil)
	if !it.Done() {
		t.Fatal("iterator over empty run not Done")
	}
	it.Seek(5) // must not panic past the end
	if !it.Done() {
		t.Fatal("empty iterator became un-Done after Seek")
	}
}

// TestRunCacheInvalidatedByAdd checks that a run read after an Add reflects
// it.
func TestRunCacheInvalidatedByAdd(t *testing.T) {
	s := New()
	add := func(subj string) {
		if err := s.Add("http://ex/g", rdf.Triple{
			S: rdf.NewIRI("http://ex/" + subj),
			P: rdf.NewIRI("http://ex/p"),
			O: rdf.NewIRI("http://ex/o"),
		}); err != nil {
			t.Fatal(err)
		}
	}
	add("a")
	g := s.Graph("http://ex/g")
	p, _ := s.Dict().Lookup(rdf.NewIRI("http://ex/p"))
	if n := len(g.SubjectsOfPred(p)); n != 1 {
		t.Fatalf("initial run has %d subjects, want 1", n)
	}
	add("b")
	if n := len(g.SubjectsOfPred(p)); n != 2 {
		t.Fatalf("run after insert has %d subjects, want 2 (stale run served)", n)
	}
}

func TestRunIteratorSeek(t *testing.T) {
	run := Run{2, 5, 5 + 2, 11, 30, 31, 90}
	// (7 written as 5+2 to dodge any accidental duplicate-literal edits.)
	it := NewRunIterator(run)
	if it.Done() || it.At() != 2 {
		t.Fatalf("fresh iterator at %d, want 2", it.At())
	}

	it.Seek(6)
	if it.At() != 7 {
		t.Fatalf("Seek(6) landed on %d, want 7 (first element >= 6)", it.At())
	}
	it.Seek(7) // exact hit: stays put
	if it.At() != 7 {
		t.Fatalf("Seek(7) landed on %d, want 7", it.At())
	}
	it.Seek(3) // backwards: no rewind
	if it.At() != 7 {
		t.Fatalf("Seek(3) rewound to %d, want 7", it.At())
	}
	it.Next()
	if it.At() != 11 {
		t.Fatalf("Next landed on %d, want 11", it.At())
	}
	it.Seek(31)
	if it.At() != 31 {
		t.Fatalf("Seek(31) landed on %d, want 31", it.At())
	}
	it.Seek(91) // past the end
	if !it.Done() {
		t.Fatalf("Seek past the end left iterator at %d, want Done", it.At())
	}
	it.Seek(1) // Done is terminal
	if !it.Done() {
		t.Fatal("Seek on a Done iterator resurrected it")
	}
}

func TestRunIteratorSeekExhaustive(t *testing.T) {
	// Every (start, target) pair over a fixed run must land on the first
	// element >= target at or after start — the leapfrog contract.
	run := Run{1, 4, 9, 16, 25, 36, 49, 64, 81, 100}
	for start := 0; start < len(run); start++ {
		for target := ID(0); target <= 101; target++ {
			it := RunIterator{run: run, pos: start}
			it.Seek(target)
			want := -1
			for i := start; i < len(run); i++ {
				if run[i] >= target {
					want = i
					break
				}
			}
			if want == -1 {
				if !it.Done() {
					t.Fatalf("start=%d Seek(%d): at %d, want Done", start, target, it.At())
				}
				continue
			}
			if it.Done() || it.pos != want {
				t.Fatalf("start=%d Seek(%d): pos=%d done=%v, want pos=%d",
					start, target, it.pos, it.Done(), want)
			}
		}
	}
}

func BenchmarkRunIteratorSeek(b *testing.B) {
	run := make(Run, 1<<16)
	for i := range run {
		run[i] = ID(i*3 + 1)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		it := NewRunIterator(run)
		for id := ID(1); !it.Done(); id += 97 {
			it.Seek(id)
			if !it.Done() {
				it.Next()
			}
		}
	}
}

var _ = fmt.Sprintf // keep fmt for future debugging of table-driven cases
