package bench

import (
	"bytes"
	"testing"
	"time"

	"rdfframes/internal/sparql"
)

// TestAblationsByteIdenticalFigure5 is the correctness property of every
// ablation toggle: for each Figure-5 query, the candidate serializes
// byte-identically to the baseline, with the candidate at 1, 2, 4 and 8
// workers. That covers the planner and WCOJ at parallelism 1 and on a
// morsel pool, and the pool at 2, 4 and 8 workers against the serial
// engine. Run under -race in CI, it also hammers the planner's shared-plan
// paths and the parallel trie walkers.
func TestAblationsByteIdenticalFigure5(t *testing.T) {
	env := sharedEnv(t)
	widths := []int{1, 2, 4, 8}
	for i, a := range Ablations(1) {
		t.Run(a.Name, func(t *testing.T) {
			base := newAblationEngine(env, time.Minute, 1, a.ConfigureBaseline)
			cands := make([]*sparql.Engine, len(widths))
			for j, w := range widths {
				cands[j] = newAblationEngine(env, time.Minute, w, Ablations(w)[i].ConfigureCandidate)
			}
			for _, task := range Synthetic() {
				t.Run(task.ID, func(t *testing.T) {
					query, err := task.Frame(env).ToSPARQL()
					if err != nil {
						t.Fatal(err)
					}
					want, err := evalJSON(base, query)
					if err != nil {
						t.Fatalf("%s: %v", a.Baseline, err)
					}
					for j, cand := range cands {
						got, err := evalJSON(cand, query)
						if err != nil {
							t.Fatalf("%s at %d workers: %v", a.Candidate, widths[j], err)
						}
						if !bytes.Equal(want.Body, got.Body) {
							t.Errorf("%s at %d workers differs from %s (%d vs %d bytes)",
								a.Candidate, widths[j], a.Baseline, len(got.Body), len(want.Body))
						}
					}
				})
			}
			if seg, _, _, _ := base.WCOJStats(); base.DisableWCOJ && seg != 0 {
				t.Error("DisableWCOJ engine executed a WCOJ segment")
			}
			for j, cand := range cands {
				if seg, _, _, _ := cand.WCOJStats(); a.Name == "wcoj" && seg == 0 {
					t.Errorf("no Figure-5 query executed a WCOJ segment at %d workers; the property is vacuous", widths[j])
				}
			}
		})
	}
}

// TestMeasureAblationsSmoke runs the ablation figure end to end at test
// scale and checks the report shape benchcheck relies on.
func TestMeasureAblationsSmoke(t *testing.T) {
	reps, err := MeasureAblations(sharedEnv(t), 4, 1, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	abls := Ablations(4)
	if len(reps) != len(abls) {
		t.Fatalf("reports = %d, want one per ablation", len(reps))
	}
	for i, rep := range reps {
		if rep.Name != abls[i].Name {
			t.Errorf("report %d = %s, want %s", i, rep.Name, abls[i].Name)
		}
		checkAblationReport(t, rep)
	}
	if _, err := MeasureAblations(sharedEnv(t), 1, 1, time.Minute); err == nil {
		t.Error("MeasureAblations accepted 1 worker")
	}
}

// measureAblationRow measures the named row of Ablations(workers) at test
// scale and checks the shape every row shares.
func measureAblationRow(t *testing.T, name string, workers int) *AblationReport {
	t.Helper()
	for _, a := range Ablations(workers) {
		if a.Name != name {
			continue
		}
		rep, err := measureAblation(sharedEnv(t), a, 1, time.Minute)
		if err != nil {
			t.Fatal(err)
		}
		checkAblationReport(t, rep)
		return rep
	}
	t.Fatalf("no ablation named %q", name)
	return nil
}

// checkAblationReport checks one row's report: every Figure-5 query
// measured, byte-identical and timed, and a non-empty formatted table.
func checkAblationReport(t *testing.T, rep *AblationReport) {
	t.Helper()
	if len(rep.Queries) != len(Synthetic()) {
		t.Fatalf("%s: queries = %d, want %d", rep.Name, len(rep.Queries), len(Synthetic()))
	}
	if rep.AppliedQueries == 0 {
		t.Errorf("%s: the toggle applied to no Figure-5 query", rep.Name)
	}
	for _, q := range rep.Queries {
		if !q.ByteIdentical {
			t.Errorf("%s %s: not byte-identical", rep.Name, q.Task)
		}
		if q.BaselineSeconds <= 0 || q.CandidateSeconds <= 0 {
			t.Errorf("%s %s: empty timing", rep.Name, q.Task)
		}
	}
	if FormatAblation(rep) == "" {
		t.Errorf("%s: empty formatted report", rep.Name)
	}
}

func TestMeasurePlannerSmoke(t *testing.T) {
	rep := measureAblationRow(t, "planner", 4)
	if rep.Workers != 1 {
		t.Errorf("planner row ran at %d workers, want 1", rep.Workers)
	}
	if rep.AppliedQueries != len(Synthetic()) {
		t.Errorf("planner applied to %d queries, want all %d", rep.AppliedQueries, len(Synthetic()))
	}
}

func TestMeasureParallelSmoke(t *testing.T) {
	rep := measureAblationRow(t, "parallel", 4)
	if rep.Workers != 4 {
		t.Errorf("parallel row ran at %d workers, want 4", rep.Workers)
	}
}

func TestMeasureWCOJSmoke(t *testing.T) {
	rep := measureAblationRow(t, "wcoj", 4)
	for _, q := range rep.Queries {
		if q.Applied && q.Seeks == 0 {
			t.Errorf("%s: WCOJ chosen but recorded no iterator seeks", q.Task)
		}
		if !q.Applied && (q.Seeks != 0 || q.Backtracks != 0) {
			t.Errorf("%s: WCOJ not chosen but moved its counters", q.Task)
		}
	}
}
