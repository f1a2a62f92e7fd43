package client

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestRetryPolicyDelaySchedule pins the backoff math: exponential growth
// from BaseDelay, the MaxDelay cap, and the Retry-After override with its
// own ceiling. Jitter < 0 disables the spread for exactness.
func TestRetryPolicyDelaySchedule(t *testing.T) {
	p := RetryPolicy{Jitter: -1}.withDefaults()
	cases := []struct {
		retryNum   int
		retryAfter time.Duration
		want       time.Duration
	}{
		{1, 0, 50 * time.Millisecond},
		{2, 0, 100 * time.Millisecond},
		{3, 0, 200 * time.Millisecond},
		{10, 0, 2 * time.Second},              // capped at MaxDelay
		{1, 5 * time.Second, 5 * time.Second}, // server hint wins
		{1, 10 * time.Minute, time.Minute},    // hint capped at maxRetryAfter
	}
	for _, c := range cases {
		if got := p.delay(c.retryNum, c.retryAfter); got != c.want {
			t.Errorf("delay(%d, %v) = %v, want %v", c.retryNum, c.retryAfter, got, c.want)
		}
	}
}

// TestRetryPolicyJitterBounds: with jitter on, delays stay within the
// ±Jitter band around the computed value.
func TestRetryPolicyJitterBounds(t *testing.T) {
	p := RetryPolicy{BaseDelay: 100 * time.Millisecond, Jitter: 0.2}.withDefaults()
	lo, hi := 80*time.Millisecond, 120*time.Millisecond
	for i := 0; i < 200; i++ {
		if d := p.delay(1, 0); d < lo || d > hi {
			t.Fatalf("jittered delay %v outside [%v, %v]", d, lo, hi)
		}
	}
}

// emptyResult is a minimal valid SPARQL JSON result body.
const emptyResult = `{"head":{"vars":["s"]},"results":{"bindings":[]}}`

// shedThenServe returns an endpoint whose first shedCount requests answer
// with status + Retry-After, and everything after with a valid result.
func shedThenServe(t *testing.T, shedCount int, status int, retryAfter string) (string, *atomic.Int64) {
	t.Helper()
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := calls.Add(1)
		if int(n) <= shedCount {
			if retryAfter != "" {
				w.Header().Set("Retry-After", retryAfter)
			}
			http.Error(w, "shed", status)
			return
		}
		w.Header().Set("Content-Type", "application/sparql-results+json")
		strings.NewReader(emptyResult).WriteTo(w)
	}))
	t.Cleanup(ts.Close)
	return ts.URL, &calls
}

// TestRetry429HonorsRetryAfter: a 429 shed is retried, and the retry waits
// at least the server's Retry-After hint.
func TestRetry429HonorsRetryAfter(t *testing.T) {
	ep, calls := shedThenServe(t, 1, http.StatusTooManyRequests, "1")
	c := NewHTTPClient(ep, 0)
	c.Retry = &RetryPolicy{Jitter: -1}

	start := time.Now()
	res, err := c.Select(`SELECT ?s WHERE { ?s ?p ?o }`)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Vars) != 1 || res.Vars[0] != "s" {
		t.Fatalf("vars = %v", res.Vars)
	}
	if calls.Load() != 2 {
		t.Fatalf("calls = %d, want 2 (shed + success)", calls.Load())
	}
	if elapsed < 900*time.Millisecond {
		t.Fatalf("retried after %v, ignoring Retry-After: 1", elapsed)
	}
}

// TestRetryGivesUpAtMaxAttempts: a persistently shedding endpoint is hit
// exactly MaxAttempts times and the final error surfaces the status.
func TestRetryGivesUpAtMaxAttempts(t *testing.T) {
	ep, calls := shedThenServe(t, 1<<30, http.StatusServiceUnavailable, "")
	c := NewHTTPClient(ep, 0)
	c.Retry = &RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond, Jitter: -1}

	_, err := c.Select(`SELECT ?s WHERE { ?s ?p ?o }`)
	if err == nil {
		t.Fatal("Select succeeded against an always-shedding endpoint")
	}
	if !strings.Contains(err.Error(), "503") {
		t.Fatalf("error does not surface the status: %v", err)
	}
	if calls.Load() != 3 {
		t.Fatalf("calls = %d, want exactly MaxAttempts=3", calls.Load())
	}
}

// TestRetryBackoffAbortsOnCancel: cancelling the client's context during a
// long Retry-After backoff returns promptly instead of sleeping it out.
func TestRetryBackoffAbortsOnCancel(t *testing.T) {
	ep, _ := shedThenServe(t, 1<<30, http.StatusServiceUnavailable, "30")
	ctx, cancel := context.WithCancel(context.Background())
	c := NewHTTPClient(ep, 0).WithContext(ctx)
	c.Retry = &RetryPolicy{Jitter: -1}

	go func() {
		time.Sleep(100 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := c.Select(`SELECT ?s WHERE { ?s ?p ?o }`)
	if err == nil {
		t.Fatal("Select succeeded unexpectedly")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v to take effect — backoff ignored the context", elapsed)
	}
}

// TestRetry4xxNotRetried: client errors other than 429 are terminal; the
// endpoint must be hit exactly once.
func TestRetry4xxNotRetried(t *testing.T) {
	ep, calls := shedThenServe(t, 1<<30, http.StatusBadRequest, "")
	c := NewHTTPClient(ep, 0)
	c.Retry = &RetryPolicy{BaseDelay: time.Millisecond, Jitter: -1}
	if _, err := c.Select(`SELECT ?s WHERE { ?s ?p ?o }`); err == nil {
		t.Fatal("Select succeeded against a 400 endpoint")
	}
	if calls.Load() != 1 {
		t.Fatalf("calls = %d, want 1 (400 is not transient)", calls.Load())
	}
}
