package snapshot

import (
	"bytes"
	"testing"

	"rdfframes/internal/rdf"
	"rdfframes/internal/store"
)

// fuzzSeed is a small valid snapshot: two graphs, every term kind, a
// shared term, and one empty graph.
func fuzzSeed(tb testing.TB) []byte {
	st := store.New()
	add := func(g string, s, p, o rdf.Term) {
		if err := st.Add(g, rdf.Triple{S: s, P: p, O: o}); err != nil {
			tb.Fatal(err)
		}
	}
	knows := rdf.NewIRI("http://f/knows")
	add("http://f/g1", rdf.NewIRI("http://f/a"), knows, rdf.NewIRI("http://f/b"))
	add("http://f/g1", rdf.NewIRI("http://f/a"), rdf.NewIRI("http://f/name"), rdf.NewLangLiteral("A", "en"))
	add("http://f/g2", rdf.NewBlank("x"), knows, rdf.NewTypedLiteral("7", rdf.XSDInteger))
	if err := st.BulkGraph("http://f/empty", nil); err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Write(&buf, st); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzRead checks that Read never panics and that whatever it accepts is
// exactly what Write produces for the store it returns. The seeds are a
// small valid snapshot and its truncations; testdata/fuzz/FuzzRead holds
// the same inputs, so every test run replays them.
func FuzzRead(f *testing.F) {
	seed := fuzzSeed(f)
	for _, n := range []int{len(seed), len(seed) - 1, len(seed) - 4, len(seed) / 2, 12, 8} {
		f.Add(seed[:n])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := Write(&out, st); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out.Bytes(), data) {
			t.Fatalf("Write of the accepted store differs from the input:\nin  %x\nout %x", data, out.Bytes())
		}
	})
}
