package client

import (
	"net/http"
	"net/http/httptest"
	"net/url"
	"sync/atomic"
	"testing"
)

// These tests pin the client/server truncation contract end to end against
// the real server implementation: the server caps every response at MaxRows
// and flags the cut with X-Truncated; the client must keep paginating until
// it holds the complete result, whatever the relation between its page size
// and the server's cap.

const contractQuery = `SELECT ?s ?o WHERE { ?s <http://ex/p> ?o }`

func checkComplete(t *testing.T, rows int, res interface{ Len() int }, resRows func(i int) string) {
	t.Helper()
	if res.Len() != rows {
		t.Fatalf("rows = %d, want %d", res.Len(), rows)
	}
	seen := make(map[string]bool, rows)
	for i := 0; i < rows; i++ {
		key := resRows(i)
		if seen[key] {
			t.Fatalf("duplicate row %s", key)
		}
		seen[key] = true
	}
}

func runContract(t *testing.T, nTriples, maxRows, pageSize int) {
	t.Helper()
	ep := newEndpoint(t, nTriples, maxRows)
	c := NewHTTPClient(ep, pageSize)
	res, err := c.Select(contractQuery)
	if err != nil {
		t.Fatal(err)
	}
	checkComplete(t, nTriples, res, func(i int) string { return res.Rows[i][0].String() })
}

func TestTruncationContractPaginationDisabled(t *testing.T) {
	// Even with pagination off (PageSize 0) a truncated response must not
	// be returned as if complete: the client resumes with pages sized to
	// the cap the server revealed.
	runContract(t, 57, 10, 0)
}

func TestTruncationContractServerCapBelowPageSize(t *testing.T) {
	// The server cuts every chunk below what the client asked for; only the
	// X-Truncated header tells the client the result is incomplete.
	runContract(t, 57, 10, 25)
}

func TestTruncationContractServerCapEqualsPageSize(t *testing.T) {
	runContract(t, 57, 10, 10)
}

func TestTruncationContractServerCapAbovePageSize(t *testing.T) {
	runContract(t, 57, 50, 10)
}

func TestTruncationContractExactMultiple(t *testing.T) {
	// Result size a multiple of the cap: the final probe returns an empty
	// chunk and pagination must stop cleanly.
	runContract(t, 60, 10, 30)
}

func TestTruncationContractRetryAfterTransientError(t *testing.T) {
	// A transient 503 in the middle of pagination must be retried without
	// losing or duplicating rows of the truncated stream.
	const nTriples = 45
	inner := newEndpoint(t, nTriples, 10)
	var calls, failures atomic.Int32
	flaky := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 3 {
			failures.Add(1)
			http.Error(w, "transient overload", http.StatusServiceUnavailable)
			return
		}
		resp, err := http.Get(inner + "?" + r.URL.RawQuery)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		defer resp.Body.Close()
		w.Header().Set("Content-Type", resp.Header.Get("Content-Type"))
		if v := resp.Header.Get("X-Truncated"); v != "" {
			w.Header().Set("X-Truncated", v)
		}
		buf := make([]byte, 4096)
		for {
			n, err := resp.Body.Read(buf)
			w.Write(buf[:n])
			if err != nil {
				break
			}
		}
	}))
	defer flaky.Close()

	c := NewHTTPClient(flaky.URL, 25)
	c.Retry = &RetryPolicy{MaxAttempts: 3}
	res, err := c.Select(contractQuery)
	if err != nil {
		t.Fatal(err)
	}
	if failures.Load() != 1 {
		t.Fatalf("transient failure not injected (calls=%d)", calls.Load())
	}
	checkComplete(t, nTriples, res, func(i int) string { return res.Rows[i][0].String() })
}

func TestTruncationContractPaginationOrderStable(t *testing.T) {
	// Two full paginated reads must agree row for row: the store's
	// deterministic iteration order is what makes OFFSET-based resumption
	// sound, so any divergence here means truncated reads can lose rows.
	ep := newEndpoint(t, 83, 7)
	c := NewHTTPClient(ep, 7)
	first, err := c.Select(contractQuery)
	if err != nil {
		t.Fatal(err)
	}
	second, err := c.Select(contractQuery)
	if err != nil {
		t.Fatal(err)
	}
	if first.Len() != second.Len() {
		t.Fatalf("lengths differ: %d vs %d", first.Len(), second.Len())
	}
	for i := range first.Rows {
		for j := range first.Rows[i] {
			if first.Rows[i][j] != second.Rows[i][j] {
				t.Fatalf("row %d differs between reads", i)
			}
		}
	}
}

func TestTruncationHeaderSurvivesLargerResults(t *testing.T) {
	// Belt and braces on the header itself: a capped endpoint must flag
	// every full chunk it cuts.
	ep := newEndpoint(t, 30, 10)
	resp, err := http.Get(ep + "?query=" + url.QueryEscape(contractQuery))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.Header.Get("X-Truncated") != "true" {
		t.Fatal("server did not flag a truncated response")
	}
}
