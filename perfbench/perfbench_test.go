package main

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
)

// TestWorkloadsSmall runs every workload end to end at the small scale,
// untraced and traced, and requires every op and check to pass.
func TestWorkloadsSmall(t *testing.T) {
	for _, workload := range []string{"extract", "serve", "update"} {
		for _, trace := range []bool{false, true} {
			o := options{workload: workload, seed: 7, seconds: 1, trace: trace, scale: "small", scratch: t.TempDir()}
			res, err := execute(o, &bytes.Buffer{})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", workload, trace, err)
			}
			if res.failed != 0 || res.attempted == 0 {
				t.Errorf("%s trace=%v: %d of %d failed: %v", workload, trace, res.failed, res.attempted, res.errors)
			}
			want := map[string]bool{}
			for _, m := range res.metrics {
				want[m.name] = true
			}
			for _, name := range []string{"setup_s", "read_p50_ms", "core.compile_ms", "store.compactions"} {
				isLayer := strings.Contains(name, ".")
				if isLayer == trace && !want[name] {
					t.Errorf("%s trace=%v: metric %s missing", workload, trace, name)
				}
			}
			var out bytes.Buffer
			if err := res.print(&out); err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			if last := lines[len(lines)-1]; !strings.HasPrefix(last, `{"correct":true,`) {
				t.Errorf("%s trace=%v: last line %q", workload, trace, last)
			}
			if workload == "update" && trace {
				for _, m := range res.metrics {
					// The store version advances by the triples a batch changed.
					if m.name == "store.version_bumps" && m.value != batchSize {
						t.Errorf("update: version advanced %v per write, want %d", m.value, batchSize)
					}
				}
			}
		}
	}
}

// TestSpanSelfTimes checks that in a traced run every op's span self
// times sum to no more than the op's duration, and that a span recorded
// outside its caller's interval — a broken wrapper — is caught.
func TestSpanSelfTimes(t *testing.T) {
	for _, workload := range []string{"extract", "update"} {
		st, _, r := smallRunner(t, workload)
		defer st.close()
		loop := r.extract
		if workload == "update" {
			loop = r.update
			if _, err := r.warmUpdate(); err != nil {
				t.Fatal(err)
			}
		}
		ph := r.measure(true, loop, 0.5)
		if len(ph.spans) == 0 {
			t.Fatalf("%s: no spans", workload)
		}
		ls := collectLayers(ph.spans)
		if ls.excess != 0 {
			t.Errorf("%s: %d ops have self times exceeding their duration", workload, ls.excess)
		}
		for _, name := range []string{"core.compile", "client.select", "http.roundtrip", "http.body", "server.handle", "dataframe.build", "sparql.do"} {
			if len(ls.incl[name]) == 0 {
				t.Errorf("%s: no %s spans", workload, name)
			}
		}
		if workload == "update" && len(ls.incl["client.update"]) == 0 {
			t.Error("update: no client.update spans")
		}
	}

	// A child recorded after its parent ended shows as excess.
	broken := []span{
		{ID: 1, Op: 1, Name: "op.read", Start: 0, End: 100},
		{ID: 2, Parent: 1, Op: 1, Name: "client.select", Start: 10, End: 90},
		{ID: 3, Parent: 2, Op: 1, Name: "http.body", Start: 80, End: 150},
	}
	if ls := collectLayers(broken); ls.excess != 1 {
		t.Errorf("broken wrapper not caught: excess = %d", ls.excess)
	}
	// A remote child outlasting its parent is clipped, not excess.
	remote := []span{
		{ID: 1, Op: 1, Name: "op.read", Start: 0, End: 100},
		{ID: 2, Parent: 1, Op: 1, Name: "http.roundtrip", Start: 10, End: 50},
		{ID: 3, Parent: 1, Op: 1, Name: "http.body", Start: 50, End: 90},
		{ID: 4, Parent: 2, Op: 1, Name: "server.handle", Remote: true, Start: 20, End: 70},
	}
	if ls := collectLayers(remote); ls.excess != 0 {
		t.Errorf("remote span counted as excess: %d", ls.excess)
	}
}

// TestCorruptReferenceFails checks that an answer differing from its
// reference is counted as a failed op rather than aborting the run.
func TestCorruptReferenceFails(t *testing.T) {
	st, fs, r := smallRunner(t, "extract")
	defer st.close()
	fs[0].ref.sum++
	ph := r.measure(false, r.extract, 0.2)
	res := &result{}
	res.ops(ph.ops)
	if res.failed == 0 {
		t.Fatal("corrupted reference not counted as a failure")
	}
	for _, op := range ph.ops {
		if (op.err != nil) != (op.name == fs[0].id) {
			t.Errorf("op %s: err = %v", op.name, op.err)
		}
	}
}

// TestZipfDeck checks the deck's proportions: every rank present, counts
// falling with rank.
func TestZipfDeck(t *testing.T) {
	deck := zipfDeck(rand.New(rand.NewSource(1)), 18, zipfS, zipfDeckSize)
	counts := make([]int, 18)
	for _, k := range deck {
		counts[k]++
	}
	for k := 1; k < len(counts); k++ {
		if counts[k] < 1 || counts[k] > counts[k-1] {
			t.Fatalf("counts not Zipf-shaped: %v", counts)
		}
	}
}

// smallRunner sets up a workload's stack at the small scale with
// references computed.
func smallRunner(t *testing.T, workload string) (*stack, []*frame, *runner) {
	t.Helper()
	in, err := makeInput(7, "small")
	if err != nil {
		t.Fatal(err)
	}
	fs, err := frames()
	if err != nil {
		t.Fatal(err)
	}
	cfg := workloads[workload]
	if workload == "update" {
		cfg.walPath = t.TempDir() + "/wal"
	}
	st, _, err := setUp(in, cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := newRunner(7, st, fs)
	checks, err := computeReferences(r.ref, fs)
	if err != nil {
		t.Fatal(err)
	}
	for i, err := range checks {
		if err != nil {
			t.Fatalf("reference %s: %v", fs[i].id, err)
		}
	}
	return st, fs, r
}
