package snapshot

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"reflect"
	"testing"

	"rdfframes/internal/rdf"
	"rdfframes/internal/store"
)

func iriTerm(s string) rdf.Term { return rdf.NewIRI("http://stats/" + s) }

// TestStatsSurviveReopen asserts that the statistics catalog of a reopened
// snapshot equals the original's — the planner must see identical
// cardinalities whether the store was built incrementally or reopened.
func TestStatsSurviveReopen(t *testing.T) {
	st := testStore(t)
	re, err := Read(bytes.NewReader(snapshotBytes(t, st)))
	if err != nil {
		t.Fatal(err)
	}
	want, got := st.Stats(), re.Stats()
	if want.TotalTriples != got.TotalTriples {
		t.Fatalf("TotalTriples: want %d, got %d", want.TotalTriples, got.TotalTriples)
	}
	for uri, wg := range want.Graphs {
		gg := got.Graphs[uri]
		if gg == nil {
			t.Fatalf("graph <%s> missing from reopened stats", uri)
		}
		if !reflect.DeepEqual(wg, gg) {
			t.Fatalf("graph <%s> stats differ:\nwant %+v\ngot  %+v", uri, *wg, *gg)
		}
	}
}

// restamp rewrites the trailing checksum after a deliberate edit, so the
// damage a test plants is semantic rather than bitrot.
func restamp(data []byte) {
	body := data[:len(data)-4]
	binary.LittleEndian.PutUint32(data[len(data)-4:], crc32.ChecksumIEEE(body))
}

// TestOldVersionsRejected asserts that format versions 1 and 2, which
// carried index images and a statistics section, are refused by version
// number rather than misread.
func TestOldVersionsRejected(t *testing.T) {
	for _, v := range []uint32{1, 2} {
		data := snapshotBytes(t, testStore(t))
		binary.LittleEndian.PutUint32(data[len(Magic):], v)
		restamp(data)
		var vErr *UnsupportedVersionError
		if _, err := Read(bytes.NewReader(data)); !errors.As(err, &vErr) || vErr.Got != v {
			t.Fatalf("version %d: err = %v, want UnsupportedVersionError", v, err)
		}
	}
}

// twoTripleSnapshot returns the snapshot of one graph holding (1 3 4) and
// (2 3 4): every id fits one varint byte, so the body ends with the six
// bytes 1 3 4 2 3 4.
func twoTripleSnapshot(t *testing.T) []byte {
	t.Helper()
	st := store.New()
	d := st.Dict()
	s1, s2, p, o := d.Encode(iriTerm("s1")), d.Encode(iriTerm("s2")), d.Encode(iriTerm("p")), d.Encode(iriTerm("o"))
	if err := st.BulkGraph("http://g", []store.IDTriple{{S: s1, P: p, O: o}, {S: s2, P: p, O: o}}); err != nil {
		t.Fatal(err)
	}
	data := snapshotBytes(t, st)
	if tail := data[len(data)-10 : len(data)-4]; !bytes.Equal(tail, []byte{1, 3, 4, 2, 3, 4}) {
		t.Fatalf("unexpected triple bytes %v", tail)
	}
	return data
}

// TestUnsortedTripleListRejected asserts that the reader refuses a triple
// list that is not strictly ascending — out of order or with a repeated
// triple — even when the checksum matches.
func TestUnsortedTripleListRejected(t *testing.T) {
	for name, triples := range map[string][]byte{
		"out of order": {2, 3, 4, 1, 3, 4},
		"duplicate":    {1, 3, 4, 1, 3, 4},
	} {
		data := twoTripleSnapshot(t)
		copy(data[len(data)-10:], triples)
		restamp(data)
		if _, err := Read(bytes.NewReader(data)); err == nil {
			t.Fatalf("%s triple list accepted", name)
		}
	}
}

// TestDuplicateBulkTriplesRoundTrip is the regression test for duplicate
// triples handed to BulkGraph: they collapse on install, so the snapshot
// holds one copy and every access path of the reopened store agrees.
func TestDuplicateBulkTriplesRoundTrip(t *testing.T) {
	st := store.New()
	d := st.Dict()
	tr := store.IDTriple{S: d.Encode(iriTerm("s")), P: d.Encode(iriTerm("p")), O: d.Encode(iriTerm("o"))}
	if err := st.BulkGraph("http://g", []store.IDTriple{tr, tr}); err != nil {
		t.Fatal(err)
	}
	re, err := Read(bytes.NewReader(snapshotBytes(t, st)))
	if err != nil {
		t.Fatal(err)
	}
	g := re.Graph("http://g")
	if g.Len() != 1 || g.Count(store.IDTriple{S: tr.S, P: tr.P}) != 1 || g.Count(tr) != 1 {
		t.Fatalf("Len=%d Count(s,p,?)=%d Count(s,p,o)=%d, want 1 each",
			g.Len(), g.Count(store.IDTriple{S: tr.S, P: tr.P}), g.Count(tr))
	}
}

// TestRepeatedGraphRejected asserts that a graph URI listed twice is
// refused: installing both would leave a store whose snapshot differs from
// the file.
func TestRepeatedGraphRejected(t *testing.T) {
	var body bytes.Buffer
	body.WriteString(Magic)
	binary.Write(&body, binary.LittleEndian, uint32(Version))
	body.Write([]byte{0})                       // no terms
	body.Write([]byte{2, 1, 'g', 0, 1, 'g', 0}) // graph "g" twice, no triples
	body.Write(make([]byte, 4))
	data := body.Bytes()
	restamp(data)
	if _, err := Read(bytes.NewReader(data)); err == nil {
		t.Fatal("repeated graph accepted")
	}
}
