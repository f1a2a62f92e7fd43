package main

import (
	"strings"
	"testing"

	"rdfframes/internal/bench"
)

// soundReport is a minimal report that passes every gate: one Figure-5
// measurement and three ablations over Q1 and Q2, WCOJ chosen with seeks.
func soundReport() *bench.JSONReport {
	r := &bench.JSONReport{Measurements: []bench.JSONMeasurement{
		{Figure: "5", Task: "Q1", Approach: "RDFFrames", Seconds: 1, Rows: 1},
	}}
	for _, name := range []string{"planner", "parallel", "wcoj"} {
		a := &bench.AblationReport{Name: name}
		for _, task := range []string{"Q1", "Q2"} {
			a.Queries = append(a.Queries, bench.AblationQuery{Task: task, Rows: 1, Applied: true,
				BaselineSeconds: 1, CandidateSeconds: 1, Speedup: 1, ByteIdentical: true, Seeks: 3})
		}
		r.Ablations = append(r.Ablations, a)
	}
	return r
}

// TestCheckAblationGates breaks a sound report one way at a time and
// asserts the matching ablation gate fires.
func TestCheckAblationGates(t *testing.T) {
	if problems := check(soundReport(), soundReport(), 3); len(problems) != 0 {
		t.Fatalf("sound report flagged: %v", problems)
	}
	wcoj := func(r *bench.JSONReport) []bench.AblationQuery { return r.Ablations[2].Queries }
	for _, tc := range []struct {
		name, want string
		mutate     func(*bench.JSONReport)
	}{
		{"non-identical", "ablation planner Q2: candidate result not byte-identical",
			func(r *bench.JSONReport) { r.Ablations[0].Queries[1].ByteIdentical = false }},
		{"empty timing", "ablation parallel Q1 has an empty timing",
			func(r *bench.JSONReport) { r.Ablations[1].Queries[0].CandidateSeconds = 0 }},
		{"applied nowhere", "ablation wcoj: the toggle applied to no query",
			func(r *bench.JSONReport) { wcoj(r)[0].Applied, wcoj(r)[1].Applied = false, false }},
		{"applied without seeks", "ablation wcoj Q2: chosen but recorded no iterator seeks",
			func(r *bench.JSONReport) { wcoj(r)[1].Seeks = 0 }},
		{"lost ablation", "ablation wcoj lost Q1",
			func(r *bench.JSONReport) { r.Ablations = r.Ablations[:2] }},
	} {
		fresh := soundReport()
		tc.mutate(fresh)
		if got := strings.Join(check(soundReport(), fresh, 3), "\n"); !strings.Contains(got, tc.want) {
			t.Errorf("%s: problems %q lack %q", tc.name, got, tc.want)
		}
	}
	if got := checkSections(&bench.JSONReport{}, "ablation"); len(got) != 1 {
		t.Errorf("strict check of a report without ablations = %v, want one problem", got)
	}
	if got := checkSections(soundReport(), "5,ablation"); len(got) != 0 {
		t.Errorf("strict check of a sound report = %v", got)
	}
}
