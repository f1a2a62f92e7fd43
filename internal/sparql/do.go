package sparql

import (
	"context"

	"rdfframes/internal/obs"
)

// Engine.Do is the engine's one read-side entry point: an options-struct
// call covering direct evaluation, the cached serving path, and the SPARQL
// JSON encoding (Update is its write-side counterpart).

// Request describes one query request.
type Request struct {
	// Query is the SPARQL text.
	Query string
	// Serving routes the request through the serving path: plan and result
	// caches, pagination-aware key normalization, and singleflight stampede
	// protection. Off, the request evaluates directly (still through the
	// plan cache when enabled).
	Serving bool
	// JSON asks for the SPARQL JSON serialization in Response.Body. On the
	// serving path cached entries answer from their per-window encoding
	// memo.
	JSON bool
	// MaxRows caps the returned page at this many rows (0 = no cap),
	// reporting the cut in Response.Truncated.
	MaxRows int
	// Trace, when non-nil, records parse/plan/exec spans and annotations
	// for this request (equivalent to carrying it in the context).
	Trace *obs.Trace
}

// Response is the answer to one Request.
type Response struct {
	// Results holds the decoded solutions. Nil when JSON was requested on
	// the serving path (the body is served from the encoding memo without
	// materializing a Results view).
	Results *Results
	// Body is the SPARQL JSON serialization (JSON requests only).
	Body []byte
	// Rows is the number of rows in the returned page.
	Rows int
	// Truncated reports that MaxRows cut the page short.
	Truncated bool
	// Info describes how the request was answered (cache outcome, store
	// version, plan digest).
	Info ServeInfo
}

// Do executes one query request; see Request for the knobs. Cancellation
// (or a deadline) on ctx stops the evaluation — including any morsel
// workers it fanned out — within one tick window.
func (e *Engine) Do(ctx context.Context, req Request) (*Response, error) {
	if req.Trace != nil && obs.TraceFrom(ctx) == nil {
		ctx = obs.WithTrace(ctx, req.Trace)
	}
	if !req.Serving {
		res, version, err := e.queryVersioned(ctx, req.Query)
		if err != nil {
			return nil, err
		}
		resp := &Response{Results: res, Rows: len(res.Rows), Info: ServeInfo{StoreVersion: version}}
		if req.MaxRows > 0 && len(res.Rows) > req.MaxRows {
			resp.Results = &Results{Vars: res.Vars, Rows: res.Rows[:req.MaxRows]}
			resp.Rows = req.MaxRows
			resp.Truncated = true
		}
		if req.JSON {
			body, err := resp.Results.MarshalJSON()
			if err != nil {
				return nil, err
			}
			resp.Body = body
		}
		return resp, nil
	}

	ce, limit, offset, info, err := e.serve(ctx, req.Query)
	if err != nil {
		return nil, err
	}
	lo, hi := pageBounds(len(ce.res.Rows), limit, offset)
	resp := &Response{Info: info}
	if req.MaxRows > 0 && hi-lo > req.MaxRows {
		hi = lo + req.MaxRows
		resp.Truncated = true
	}
	resp.Rows = hi - lo
	if req.JSON {
		endEncode := obs.TraceFrom(ctx).StartSpan("encode")
		body, grew, err := ce.encodedPage(lo, hi)
		endEncode()
		if err != nil {
			return nil, err
		}
		if grew && ce.key != "" && e.results != nil {
			// Re-charge the entry for its grown encoding memo so the budget
			// keeps bounding total memory; an entry that outgrew the whole
			// budget is dropped rather than sit under-accounted.
			if !e.results.Put(ce.key, ce, ce.cost()) {
				e.results.Delete(ce.key)
			}
		}
		resp.Body = body
		return resp, nil
	}
	resp.Results = &Results{Vars: ce.res.Vars, Rows: ce.res.Rows[lo:hi]}
	return resp, nil
}
