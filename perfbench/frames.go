package main

import (
	"encoding/binary"
	"fmt"
	"hash/maphash"
	"sort"

	"rdfframes"
	"rdfframes/internal/bench"
	"rdfframes/internal/client"
	"rdfframes/internal/datagen"
	"rdfframes/internal/rdf"
	"rdfframes/internal/sparql"
)

// frame is one of the paper's 18 extraction tasks, compiled once.
type frame struct {
	id     string
	rdf    *rdfframes.RDFFrame
	query  string   // the compiled SPARQL the frame sends
	expert string   // the task's hand-written SPARQL
	ref    digest   // the reference answer's multiset digest
	cols   []string // the reference answer's columns
	cost   float64
}

// frames returns Figure-5 Q1–Q15 and case studies cs1–cs3, built against
// the synthetic graphs' prefixes.
func frames() ([]*frame, error) {
	env := &bench.Env{
		DBpedia: rdfframes.NewKnowledgeGraph(datagen.DBpediaURI, datagen.DBpediaPrefixes()),
		DBLP:    rdfframes.NewKnowledgeGraph(datagen.DBLPURI, datagen.DBLPPrefixes()),
		YAGO:    rdfframes.NewKnowledgeGraph(datagen.YAGOURI, datagen.YAGOPrefixes()),
	}
	var out []*frame
	for _, t := range append(bench.Synthetic(), bench.CaseStudies()...) {
		f := t.Frame(env)
		q, err := f.ToSPARQL()
		if err != nil {
			return nil, fmt.Errorf("%s: compiling: %w", t.ID, err)
		}
		out = append(out, &frame{id: t.ID, rdf: f, query: q, expert: t.Expert(env)})
	}
	return out, nil
}

func frameByID(fs []*frame, id string) *frame {
	for _, f := range fs {
		if f.id == id {
			return f
		}
	}
	return nil
}

// computeReferences evaluates every frame and its expert SPARQL through
// the in-process client on an engine with no caches, checks that the two
// agree as multisets over the frame's columns, and records each frame's
// reference digest, columns and planner cost. The returned checks hold
// one error per frame whose expert SPARQL disagrees, nil otherwise.
func computeReferences(eng *sparql.Engine, fs []*frame) ([]error, error) {
	direct := client.NewDirect(eng)
	checks := make([]error, len(fs))
	for i, f := range fs {
		df, err := f.rdf.Execute(direct)
		if err != nil {
			return nil, fmt.Errorf("%s: reference: %w", f.id, err)
		}
		f.ref, f.cols = digestOf(df.Columns(), df.Row, df.Len()), df.Columns()
		res, err := direct.Select(f.expert)
		if err != nil {
			return nil, fmt.Errorf("%s: expert SPARQL: %w", f.id, err)
		}
		exp := rdfframes.ResultsToDataFrame(res)
		aligned, err := exp.Select(df.Columns()...)
		if err != nil || digestOf(aligned.Columns(), aligned.Row, aligned.Len()) != f.ref {
			checks[i] = fmt.Errorf("frame and expert SPARQL disagree (%d rows from the frame, %d from the expert query)", df.Len(), exp.Len())
		}
		if f.cost, _, err = eng.EstimateCost(f.query); err != nil {
			return nil, fmt.Errorf("%s: cost estimate: %w", f.id, err)
		}
	}
	return checks, nil
}

// digest is an order-independent fingerprint of a bag of rows over a set
// of columns: the row count plus the wrapping sum of a 64-bit hash of each
// row, with cells taken in sorted column-name order. Equal bags give equal
// digests whatever the row and column order.
type digest struct {
	rows int
	sum  uint64
}

var hashSeed = maphash.MakeSeed()

// rowHasher hashes rows of one column layout.
type rowHasher struct {
	order []int // cell indexes in sorted column-name order
	cols  string
	h     maphash.Hash
}

func newRowHasher(cols []string) *rowHasher {
	rh := &rowHasher{order: make([]int, len(cols))}
	for i := range rh.order {
		rh.order[i] = i
	}
	sort.Slice(rh.order, func(a, b int) bool { return cols[rh.order[a]] < cols[rh.order[b]] })
	for _, i := range rh.order {
		rh.cols += cols[i] + "\x00"
	}
	rh.h.SetSeed(hashSeed)
	return rh
}

func (rh *rowHasher) row(r []rdf.Term) uint64 {
	rh.h.Reset()
	rh.h.WriteString(rh.cols)
	var kind [1]byte
	for _, i := range rh.order {
		t := r[i]
		kind[0] = byte(t.Kind)
		rh.h.Write(kind[:])
		for _, s := range []string{t.Value, t.Datatype, t.Lang} {
			var n [4]byte
			binary.LittleEndian.PutUint32(n[:], uint32(len(s)))
			rh.h.Write(n[:])
			rh.h.WriteString(s)
		}
	}
	return rh.h.Sum64()
}

func digestOf(cols []string, row func(int) []rdf.Term, n int) digest {
	rh := newRowHasher(cols)
	d := digest{rows: n}
	for i := 0; i < n; i++ {
		d.sum += rh.row(row(i))
	}
	return d
}

// add returns the digest with extra rows added to the bag.
func (d digest) add(o digest) digest { return digest{rows: d.rows + o.rows, sum: d.sum + o.sum} }
