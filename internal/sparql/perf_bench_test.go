package sparql

import (
	"fmt"
	"testing"

	"rdfframes/internal/rdf"
	"rdfframes/internal/store"
)

// Micro-benchmarks for the ID-space operators on realistic intermediate
// cardinalities (10k–100k rows), isolating the tentpole hot paths from the
// HTTP/JSON transport the figure benchmarks also measure. Run with:
//
//	go test ./internal/sparql -run '^$' -bench 'BGPExtend|HashJoin|Distinct|GroupBy' -benchmem

// chainStore holds n subjects with two fan-out-3 predicates p and q, so
// "?s p ?o . ?s q ?x" yields 9n rows.
func chainStore(n int) *store.Store {
	p := rdf.NewIRI("http://ex/p")
	q := rdf.NewIRI("http://ex/q")
	var ts []rdf.Triple
	for i := 0; i < n; i++ {
		sub := rdf.NewIRI(fmt.Sprintf("http://ex/s%d", i))
		for j := 0; j < 3; j++ {
			ts = append(ts,
				rdf.Triple{S: sub, P: p, O: rdf.NewIRI(fmt.Sprintf("http://ex/o%d", (i+j)%97))},
				rdf.Triple{S: sub, P: q, O: rdf.NewInteger(int64(i % 1000))})
		}
	}
	s := store.New()
	s.AddAll(testGraph, ts)
	return s
}

func BenchmarkBGPExtend(b *testing.B) {
	for _, n := range []int{10_000, 100_000} {
		b.Run(fmt.Sprintf("rows=%d", n), func(b *testing.B) {
			e := NewEngine(chainStore(n / 9))
			q := `SELECT * WHERE { ?s <http://ex/p> ?o . ?s <http://ex/q> ?x }`
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := runQuery(e, q)
				if err != nil {
					b.Fatal(err)
				}
				if res.Len() == 0 {
					b.Fatal("no rows")
				}
			}
		})
	}
}

// benchBatches builds two batches sharing the x column, 1:1 joinable.
func benchBatches(n int) (*idRows, *idRows) {
	d := newEvalDict(store.NewDictionary())
	l := newIDRows([]string{"x", "a"})
	r := newIDRows([]string{"x", "b"})
	buf := make([]store.ID, 2)
	for i := 0; i < n; i++ {
		x := d.encode(rdf.NewIRI(fmt.Sprintf("http://ex/x%d", i)))
		buf[0], buf[1] = x, d.encode(rdf.NewInteger(int64(i)))
		l.appendRow(buf)
		buf[1] = d.encode(rdf.NewLiteral(fmt.Sprintf("v%d", i)))
		r.appendRow(buf)
	}
	return l, r
}

func BenchmarkHashJoin(b *testing.B) {
	for _, n := range []int{10_000, 100_000} {
		l, r := benchBatches(n)
		b.Run(fmt.Sprintf("rows=%d", n), func(b *testing.B) {
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				out := joinRows(l, r)
				if out.n != n {
					b.Fatalf("rows = %d", out.n)
				}
			}
		})
	}
}

func BenchmarkDistinct(b *testing.B) {
	for _, n := range []int{10_000, 100_000} {
		d := newEvalDict(store.NewDictionary())
		src := newIDRows([]string{"x", "y"})
		buf := make([]store.ID, 2)
		for i := 0; i < n; i++ {
			// Every pair appears exactly twice: n/2 distinct rows.
			j := i % (n / 2)
			buf[0] = d.encode(rdf.NewInteger(int64(j)))
			buf[1] = d.encode(rdf.NewIRI(fmt.Sprintf("http://ex/c%d", j%7)))
			src.appendRow(buf)
		}
		b.Run(fmt.Sprintf("rows=%d", n), func(b *testing.B) {
			data := make([]store.ID, len(src.data))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(data, src.data)
				cp := &idRows{vars: src.vars, cols: src.cols, data: data, n: src.n}
				cp.distinct()
				if cp.n >= n {
					b.Fatal("nothing deduplicated")
				}
			}
		})
	}
}

func BenchmarkGroupBy(b *testing.B) {
	for _, n := range []int{10_000, 100_000} {
		b.Run(fmt.Sprintf("rows=%d", n), func(b *testing.B) {
			e := NewEngine(chainStore(n / 9))
			q := `SELECT ?o (COUNT(?s) AS ?n) WHERE { ?s <http://ex/p> ?o . ?s <http://ex/q> ?x } GROUP BY ?o`
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := runQuery(e, q)
				if err != nil {
					b.Fatal(err)
				}
				if res.Len() == 0 {
					b.Fatal("no groups")
				}
			}
		})
	}
}
