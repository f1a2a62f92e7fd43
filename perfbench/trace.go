package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptrace"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer. Spans of one op share Op; the op's
// own span has Parent 0. Times are nanoseconds since the tracer's epoch.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Remote marks a span timed on the other side of the wire (the server
	// handler): it may outlast its client-side parent, whose response body
	// is still being read while the handler finishes writing it.
	Remote bool   `json:"remote,omitempty"`
	ReqID  string `json:"request_id,omitempty"`
	Bytes  int64  `json:"bytes,omitempty"`
	Status int    `json:"status,omitempty"`
	Cache  string `json:"cache,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory for one traced phase.
type tracer struct {
	epoch  time.Time
	nextID atomic.Int64

	mu     sync.Mutex
	spans  []span
	server []span // server-side spans, linked to client spans by request id
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// spanHandle is an open span; end records it. A nil handle, which a nil
// tracer hands out, records nothing, so untraced ops run the same code.
type spanHandle struct {
	t *tracer
	s span
}

// start opens a span under parent in op. An op's root span passes op 0 and
// takes its own id as the op id. A nil tracer returns a nil handle.
func (t *tracer) start(op, parent int64, name string) *spanHandle {
	if t == nil {
		return nil
	}
	id := t.nextID.Add(1)
	if op == 0 {
		op = id
	}
	return &spanHandle{t: t, s: span{ID: id, Parent: parent, Op: op, Name: name, Start: t.now()}}
}

// child opens a span under h in h's op.
func (h *spanHandle) child(name string) *spanHandle {
	if h == nil {
		return nil
	}
	return h.t.start(h.s.Op, h.s.ID, name)
}

func (h *spanHandle) end() {
	if h == nil {
		return
	}
	h.s.End = h.t.now()
	h.t.mu.Lock()
	h.t.spans = append(h.t.spans, h.s)
	h.t.mu.Unlock()
}

// spanRef names the span a context's outgoing calls happen under.
type spanRef struct{ op, id int64 }

type spanKey struct{}

func withSpan(ctx context.Context, h *spanHandle) context.Context {
	if h == nil {
		return ctx
	}
	return context.WithValue(ctx, spanKey{}, spanRef{op: h.s.Op, id: h.s.ID})
}

// tracerSwitch turns the transport and handler hooks on for a traced
// phase; with no tracer set they pass straight through.
type tracerSwitch struct{ p atomic.Pointer[tracer] }

func (sw *tracerSwitch) load() *tracer { return sw.p.Load() }
func (sw *tracerSwitch) set(t *tracer) { sw.p.Store(t) }

// roundTripper wraps the client transport: http.roundtrip spans from send
// to response headers, http.body spans from headers to body close (body
// read and the client's JSON parse), with the compressed bytes the
// connection carried.
func (sw *tracerSwitch) roundTripper(next http.RoundTripper) http.RoundTripper {
	return rtFunc(func(req *http.Request) (*http.Response, error) {
		t := sw.load()
		if t == nil {
			return next.RoundTrip(req)
		}
		ref, _ := req.Context().Value(spanKey{}).(spanRef)
		var conn *countingConn
		var base int64
		req = req.WithContext(httptrace.WithClientTrace(req.Context(), &httptrace.ClientTrace{
			GotConn: func(info httptrace.GotConnInfo) {
				if c, ok := info.Conn.(*countingConn); ok {
					conn, base = c, c.read.Load()
				}
			},
		}))
		rt := t.start(ref.op, ref.id, "http.roundtrip")
		rt.s.ReqID = req.Header.Get("X-Request-ID")
		resp, err := next.RoundTrip(req)
		if err != nil {
			rt.end()
			return nil, err
		}
		rt.s.Status = resp.StatusCode
		rt.end()
		body := t.start(ref.op, ref.id, "http.body")
		resp.Body = &tracedBody{ReadCloser: resp.Body, done: func() {
			if conn != nil {
				body.s.Bytes = conn.read.Load() - base
			}
			body.end()
		}}
		return resp, nil
	})
}

type rtFunc func(*http.Request) (*http.Response, error)

func (f rtFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

type tracedBody struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (b *tracedBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.done)
	return err
}

// middleware wraps the server handler: one server.handle span per request
// carrying an X-Request-ID, with bytes written, status and cache outcome.
func (sw *tracerSwitch) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t := sw.load()
		reqID := r.Header.Get("X-Request-ID")
		if t == nil || reqID == "" {
			next.ServeHTTP(w, r)
			return
		}
		s := span{Name: "server.handle", Remote: true, ReqID: reqID, Start: t.now()}
		cw := &countingWriter{ResponseWriter: w}
		next.ServeHTTP(cw, r)
		s.End = t.now()
		s.Bytes, s.Status, s.Cache = cw.n, cw.status, w.Header().Get("X-Cache")
		if s.Status == 0 {
			s.Status = http.StatusOK
		}
		t.mu.Lock()
		t.server = append(t.server, s)
		t.mu.Unlock()
	})
}

type countingWriter struct {
	http.ResponseWriter
	n      int64
	status int
}

func (w *countingWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *countingWriter) Write(b []byte) (int, error) {
	n, err := w.ResponseWriter.Write(b)
	w.n += int64(n)
	return n, err
}

// finish links each server span to the client round trip that carried its
// request id (retries reuse the id, so attempts pair up in start order)
// and returns every span. Server spans with no client counterpart are
// dropped.
func (t *tracer) finish() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	trips := map[string][]*span{}
	for i := range t.spans {
		if s := &t.spans[i]; s.Name == "http.roundtrip" && s.ReqID != "" {
			trips[s.ReqID] = append(trips[s.ReqID], s)
		}
	}
	sort.Slice(t.server, func(i, j int) bool { return t.server[i].Start < t.server[j].Start })
	used := map[string]int{}
	out := append([]span(nil), t.spans...)
	for _, s := range t.server {
		cands := trips[s.ReqID]
		k := used[s.ReqID]
		if k >= len(cands) {
			continue
		}
		used[s.ReqID] = k + 1
		s.ID = t.nextID.Add(1)
		s.Parent, s.Op = cands[k].ID, cands[k].Op
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// opTree is one op's spans.
type opTree struct {
	root     *span
	children map[int64][]*span
}

// groupOps arranges spans into one tree per op.
func groupOps(spans []span) map[int64]*opTree {
	ops := map[int64]*opTree{}
	for i := range spans {
		s := &spans[i]
		ot := ops[s.Op]
		if ot == nil {
			ot = &opTree{children: map[int64][]*span{}}
			ops[s.Op] = ot
		}
		if s.Parent == 0 {
			ot.root = s
		} else {
			ot.children[s.Parent] = append(ot.children[s.Parent], s)
		}
	}
	for id, ot := range ops {
		if ot.root == nil {
			delete(ops, id)
		}
	}
	return ops
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its children cover. A remote child is first clipped to
// its parent's interval; a local child is not, so a wrapper that records
// a span outside its caller's interval shows up as self time in excess of
// the op's duration.
func (ot *opTree) selfTimes() map[*span]int64 {
	out := map[*span]int64{}
	var walk func(s *span, lo, hi int64)
	walk = func(s *span, lo, hi int64) {
		start, end := s.Start, s.End
		if s.Remote {
			start, end = max(start, lo), min(end, hi)
			if end < start {
				end = start
			}
		}
		var ivs [][2]int64
		for _, c := range ot.children[s.ID] {
			cs, ce := max(c.Start, start), min(c.End, end)
			if ce > cs {
				ivs = append(ivs, [2]int64{cs, ce})
			}
			walk(c, start, end)
		}
		out[s] = (end - start) - unionLen(ivs)
	}
	walk(ot.root, ot.root.Start, ot.root.End)
	return out
}

// unionLen returns the total length covered by the intervals.
func unionLen(ivs [][2]int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total, curS, curE int64
	open := false
	for _, iv := range ivs {
		if !open || iv[0] > curE {
			if open {
				total += curE - curS
			}
			curS, curE, open = iv[0], iv[1], true
		} else if iv[1] > curE {
			curE = iv[1]
		}
	}
	if open {
		total += curE - curS
	}
	return total
}

// writeSpans writes the run's environment record and then its spans as
// JSON lines.
func writeSpans(path string, env map[string]any, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(map[string]any{"env": env}); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}
