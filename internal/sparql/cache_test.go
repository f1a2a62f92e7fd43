package sparql

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"rdfframes/internal/rdf"
	"rdfframes/internal/store"
)

func cacheTestStore(t *testing.T) *store.Store {
	t.Helper()
	st := store.New()
	for i := 0; i < 30; i++ {
		err := st.Add("http://g", rdf.Triple{
			S: rdf.NewIRI(fmt.Sprintf("http://ex/s%02d", i)),
			P: rdf.NewIRI("http://ex/p"),
			O: rdf.NewInteger(int64(i)),
		})
		if err != nil {
			t.Fatal(err)
		}
		err = st.Add("http://g", rdf.Triple{
			S: rdf.NewIRI(fmt.Sprintf("http://ex/s%02d", i)),
			P: rdf.NewIRI("http://ex/name"),
			O: rdf.NewLiteral(fmt.Sprintf("name %02d", i)),
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return st
}

func TestStripPagination(t *testing.T) {
	cases := []struct {
		src      string
		stripped string
		limit    int
		offset   int
		ok       bool
	}{
		{"SELECT * WHERE { ?s ?p ?o }", "", -1, 0, false},
		{"SELECT * WHERE { ?s ?p ?o } LIMIT 10", "SELECT * WHERE { ?s ?p ?o }", 10, 0, true},
		{"SELECT * WHERE { ?s ?p ?o } OFFSET 5", "SELECT * WHERE { ?s ?p ?o }", -1, 5, true},
		{"SELECT * WHERE { ?s ?p ?o } LIMIT 10 OFFSET 5", "SELECT * WHERE { ?s ?p ?o }", 10, 5, true},
		{"SELECT * WHERE { ?s ?p ?o } OFFSET 5 LIMIT 10", "SELECT * WHERE { ?s ?p ?o }", 10, 5, true},
		{"SELECT * WHERE { ?s ?p ?o }\nLIMIT 10\nOFFSET 0\n", "SELECT * WHERE { ?s ?p ?o }", 10, 0, true},
		{"SELECT * WHERE { ?s ?p ?o } ORDER BY ?s LIMIT 3", "SELECT * WHERE { ?s ?p ?o } ORDER BY ?s", 3, 0, true},
		// Pathologies that must fall back rather than mis-strip.
		{"SELECT * WHERE { ?s ?p ?o } LIMIT 1 LIMIT 2", "", 0, 0, false},
		{"SELECT * WHERE { ?s ?p 10 }", "", 0, 0, false},
		{"SELECT * WHERE { ?s ?p ?o } LIMIT10", "", 0, 0, false},
		{"SELECT * WHERE { ?s ?p ?o } LIMIT -1", "", 0, 0, false},
	}
	for _, tc := range cases {
		stripped, limit, offset, ok := stripPagination(tc.src)
		if ok != tc.ok {
			t.Errorf("%q: ok = %v, want %v", tc.src, ok, tc.ok)
			continue
		}
		if !ok {
			continue
		}
		if stripped != tc.stripped || limit != tc.limit || offset != tc.offset {
			t.Errorf("%q: got (%q, %d, %d), want (%q, %d, %d)",
				tc.src, stripped, limit, offset, tc.stripped, tc.limit, tc.offset)
		}
	}
}

// TestQueryServingMatchesUncached runs a spread of query shapes through a
// cached engine twice (miss then hit) and an uncached engine, asserting
// byte-identical SPARQL JSON across all three answers.
func TestQueryServingMatchesUncached(t *testing.T) {
	st := cacheTestStore(t)
	cached := NewEngine(st)
	cached.EnableCache(DefaultPlanCacheEntries, DefaultResultCacheRows)
	plain := NewEngine(st)

	queries := []string{
		`SELECT * WHERE { ?s <http://ex/p> ?o }`,
		`SELECT * WHERE { ?s <http://ex/p> ?o } LIMIT 7`,
		`SELECT * WHERE { ?s <http://ex/p> ?o } LIMIT 7 OFFSET 11`,
		`SELECT * WHERE { ?s <http://ex/p> ?o } OFFSET 28 LIMIT 10`,
		`SELECT DISTINCT ?s WHERE { ?s ?p ?o } LIMIT 5`,
		`SELECT ?s ?o WHERE { ?s <http://ex/p> ?o } ORDER BY DESC(?o) LIMIT 4 OFFSET 2`,
		`SELECT ?s (COUNT(?o) AS ?n) WHERE { ?s ?p ?o } GROUP BY ?s LIMIT 6`,
		`SELECT * WHERE { ?s <http://ex/p> ?o } OFFSET 1000`,
	}
	for _, q := range queries {
		want, err := runQuery(plain, q)
		if err != nil {
			t.Fatalf("%s: uncached: %v", q, err)
		}
		// The first serving may already hit: several of these texts
		// normalize to the same stripped key, which is the point of
		// pagination-aware slicing. Only byte-identity is asserted here.
		miss, err := cached.Do(context.Background(), Request{Query: q, Serving: true})
		if err != nil {
			t.Fatalf("%s: cached first serving: %v", q, err)
		}
		hit, err := cached.Do(context.Background(), Request{Query: q, Serving: true})
		if err != nil {
			t.Fatalf("%s: cached hit: %v", q, err)
		}
		if !hit.Info.Hit {
			t.Fatalf("%s: second serving was not a hit", q)
		}
		wantJSON := mustJSON(t, want)
		if got := mustJSON(t, miss.Results); !bytes.Equal(got, wantJSON) {
			t.Fatalf("%s: miss response differs from uncached\n got: %s\nwant: %s", q, got, wantJSON)
		}
		if got := mustJSON(t, hit.Results); !bytes.Equal(got, wantJSON) {
			t.Fatalf("%s: hit response differs from uncached\n got: %s\nwant: %s", q, got, wantJSON)
		}
		enc, err := cached.Do(context.Background(), Request{Query: q, Serving: true, JSON: true})
		if err != nil || !bytes.Equal(enc.Body, wantJSON) {
			t.Fatalf("%s: serving JSON body differs from uncached MarshalJSON (err %v)", q, err)
		}
	}
}

func mustJSON(t *testing.T, r *Results) []byte {
	t.Helper()
	data, err := r.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestQueryServingPageSharing checks pagination-aware slicing: every page
// of a LIMIT/OFFSET sweep after the first is answered from the cache with
// zero further evaluations.
func TestQueryServingPageSharing(t *testing.T) {
	st := cacheTestStore(t)
	eng := NewEngine(st)
	eng.EnableCache(DefaultPlanCacheEntries, DefaultResultCacheRows)
	plain := NewEngine(st)

	base := `SELECT * WHERE { ?s <http://ex/p> ?o }`
	var gotRows, wantRows int
	for off := 0; off < 30; off += 7 {
		page := fmt.Sprintf("%s LIMIT %d OFFSET %d", base, 7, off)
		resp, err := eng.Do(context.Background(), Request{Query: page, Serving: true})
		if err != nil {
			t.Fatal(err)
		}
		res := resp.Results
		if off == 0 && resp.Info.Hit {
			t.Fatal("first page cannot be a hit")
		}
		if off > 0 && !resp.Info.Hit {
			t.Fatalf("page at offset %d missed the cache", off)
		}
		want, err := runQuery(plain, page)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(mustJSON(t, res), mustJSON(t, want)) {
			t.Fatalf("page at offset %d differs from direct evaluation", off)
		}
		gotRows += len(res.Rows)
		wantRows += len(want.Rows)
	}
	if gotRows != 30 || wantRows != 30 {
		t.Fatalf("swept %d cached rows, %d direct rows, want 30", gotRows, wantRows)
	}
	stats := eng.CacheStats()
	if stats.Results.Misses != 1 {
		t.Fatalf("result misses = %d, want exactly 1 evaluation for the sweep", stats.Results.Misses)
	}
	if stats.Results.Hits != 4 {
		t.Fatalf("result hits = %d, want 4", stats.Results.Hits)
	}
}

// TestQueryServingInvalidationOnMutation asserts the store-version rule: a
// mutation makes the next serving a miss whose answer reflects the
// mutation; the version header value moves with it.
func TestQueryServingInvalidationOnMutation(t *testing.T) {
	st := cacheTestStore(t)
	eng := NewEngine(st)
	eng.EnableCache(DefaultPlanCacheEntries, DefaultResultCacheRows)

	req := Request{Query: `SELECT * WHERE { ?s <http://ex/p> ?o }`, Serving: true}
	resp, err := eng.Do(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Rows != 30 {
		t.Fatalf("rows = %d", resp.Rows)
	}
	v0 := resp.Info.StoreVersion

	if err := st.Add("http://g", rdf.Triple{
		S: rdf.NewIRI("http://ex/s99"),
		P: rdf.NewIRI("http://ex/p"),
		O: rdf.NewInteger(99),
	}); err != nil {
		t.Fatal(err)
	}

	resp, err = eng.Do(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Info.Hit {
		t.Fatal("stale hit after mutation")
	}
	if resp.Info.StoreVersion <= v0 {
		t.Fatalf("store version did not advance: %d -> %d", v0, resp.Info.StoreVersion)
	}
	if resp.Rows != 31 {
		t.Fatalf("post-mutation rows = %d, want 31", resp.Rows)
	}

	// And the fresh entry serves hits again at the new version.
	resp, err = eng.Do(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Info.Hit || resp.Rows != 31 {
		t.Fatalf("hit=%v rows=%d after refill", resp.Info.Hit, resp.Rows)
	}
}

func TestPlanCacheReusesParsedQueries(t *testing.T) {
	st := cacheTestStore(t)
	eng := NewEngine(st)
	eng.EnableCache(64, 0) // plans only; result caching off
	if eng.CacheEnabled() {
		t.Fatal("result cache should be off")
	}
	q := `SELECT * WHERE { ?s <http://ex/p> ?o } LIMIT 3`
	for i := 0; i < 3; i++ {
		if _, err := runQuery(eng, q); err != nil {
			t.Fatal(err)
		}
	}
	stats := eng.CacheStats()
	if stats.Plans.Misses != 1 || stats.Plans.Hits != 2 {
		t.Fatalf("plan stats = %+v", stats.Plans)
	}
	// A second text parses separately.
	if _, err := runQuery(eng, q+" OFFSET 1"); err != nil {
		t.Fatal(err)
	}
	if stats := eng.CacheStats(); stats.Plans.Misses != 2 {
		t.Fatalf("plan misses = %d, want 2", stats.Plans.Misses)
	}
}

func TestQueryServingResultBudgetRejectsOversized(t *testing.T) {
	st := cacheTestStore(t)
	eng := NewEngine(st)
	eng.EnableCache(64, 10) // budget below the 30-row result
	req := Request{Query: `SELECT * WHERE { ?s <http://ex/p> ?o } LIMIT 5`, Serving: true}
	for i := 0; i < 2; i++ {
		resp, err := eng.Do(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Info.Hit {
			t.Fatal("oversized result must not be cached")
		}
		if resp.Rows != 5 {
			t.Fatalf("rows = %d", resp.Rows)
		}
	}
	// A small enough result still caches.
	small := Request{Query: `SELECT * WHERE { ?s <http://ex/p> ?o . FILTER(?o < 3) }`, Serving: true}
	if _, err := eng.Do(context.Background(), small); err != nil {
		t.Fatal(err)
	}
	if resp, err := eng.Do(context.Background(), small); err != nil || !resp.Info.Hit {
		t.Fatalf("small result not cached: resp=%+v err=%v", resp, err)
	}
}

// TestEncodedPageMemoChargedToBudget asserts the serialized-page memo
// cannot amplify an entry's memory beyond the cache budget: every
// memoized byte is re-charged (at resultRowCostBytes per row unit), and
// an entry that outgrows the whole budget is dropped rather than kept
// under-accounted.
func TestEncodedPageMemoChargedToBudget(t *testing.T) {
	st := cacheTestStore(t)
	eng := NewEngine(st)
	// Budget of 40 row units = ~10 KB equivalent. The 30-row result fits,
	// but its encodings (~100 B/row) slowly consume the rest.
	eng.EnableCache(64, 40)
	base := `SELECT * WHERE { ?s ?p ?o }`
	for off := 0; off < 30; off++ {
		q := fmt.Sprintf("%s LIMIT 2 OFFSET %d", base, off)
		if _, err := eng.Do(context.Background(), Request{Query: q, Serving: true, JSON: true}); err != nil {
			t.Fatal(err)
		}
		if cost := eng.CacheStats().Results.Cost; cost > 40 {
			t.Fatalf("cache cost %d exceeds budget 40 after window %d", cost, off)
		}
	}
}
