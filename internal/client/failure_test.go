package client

import (
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
)

// TestMalformedJSONRetriedThenFails injects a corrupted results body: the
// client should retry (transient decode failure) and surface an error once
// retries are exhausted.
func TestMalformedJSONRetriedThenFails(t *testing.T) {
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.Header().Set("Content-Type", "application/sparql-results+json")
		w.Write([]byte(`{"head":{"vars":["x"]},"results":{"bindings":[{"x":`))
	}))
	defer srv.Close()
	c := NewHTTPClient(srv.URL, 0)
	c.Retry = &RetryPolicy{MaxAttempts: 2}
	if _, err := c.Select("SELECT * WHERE { ?s ?p ?o }"); err == nil {
		t.Fatal("malformed body accepted")
	}
	if calls.Load() != 2 {
		t.Fatalf("calls = %d, want 2 (one retry)", calls.Load())
	}
}

// TestEndpointVanishesMidPagination kills the endpoint after the first
// chunk; the client must report the failing offset.
func TestEndpointVanishesMidPagination(t *testing.T) {
	var calls atomic.Int32
	var srv *httptest.Server
	srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			w.Header().Set("Content-Type", "application/sparql-results+json")
			// Exactly pageSize rows so the client asks for another chunk.
			w.Write([]byte(`{"head":{"vars":["x"]},"results":{"bindings":[` +
				`{"x":{"type":"uri","value":"http://a"}},{"x":{"type":"uri","value":"http://b"}}]}}`))
			return
		}
		srv.CloseClientConnections()
	}))
	defer srv.Close()
	c := NewHTTPClient(srv.URL, 2)
	c.Retry = &RetryPolicy{MaxAttempts: 2}
	_, err := c.Select("SELECT ?x WHERE { ?x ?p ?o }")
	if err == nil {
		t.Fatal("mid-pagination failure not reported")
	}
}

// TestEmptyFirstChunkTerminates ensures an empty result set stops
// pagination immediately.
func TestEmptyFirstChunkTerminates(t *testing.T) {
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.Header().Set("Content-Type", "application/sparql-results+json")
		w.Write([]byte(`{"head":{"vars":["x"]},"results":{"bindings":[]}}`))
	}))
	defer srv.Close()
	c := NewHTTPClient(srv.URL, 10)
	res, err := c.Select("SELECT ?x WHERE { ?x ?p ?o }")
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 0 || calls.Load() != 1 {
		t.Fatalf("rows=%d calls=%d", res.Len(), calls.Load())
	}
}
