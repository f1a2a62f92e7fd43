package bench

import (
	"bytes"
	"testing"

	"rdfframes/internal/snapshot"
)

// TestSnapshotRoundTripFigure5ByteIdentical is the lossless-reopen property
// check: for every query of the Figure-5 suite (expert-written and the
// RDFFrames-generated form), a store reopened from a snapshot must return
// byte-identical SPARQL JSON to the store the snapshot was taken from.
// Snapshots preserve dictionary ids and triple insertion order, so even row
// order survives — which the client's LIMIT/OFFSET pagination depends on.
func TestSnapshotRoundTripFigure5ByteIdentical(t *testing.T) {
	env, err := NewEnv(ScaleSmall)
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()

	var buf bytes.Buffer
	if err := snapshot.Write(&buf, env.Store); err != nil {
		t.Fatal(err)
	}
	reopened, err := snapshot.Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	env2, err := NewEnvFromStore(reopened)
	if err != nil {
		t.Fatal(err)
	}
	defer env2.Close()

	for _, task := range Synthetic() {
		queries := map[string]string{"expert": task.Expert(env)}
		if generated, err := task.Frame(env).ToSPARQL(); err == nil {
			queries["rdfframes"] = generated
		} else {
			t.Fatalf("%s: generating SPARQL: %v", task.ID, err)
		}
		for kind, q := range queries {
			want := queryJSON(t, env, q, task.ID)
			got := queryJSON(t, env2, q, task.ID)
			if !bytes.Equal(want, got) {
				t.Fatalf("%s (%s): snapshot-reopened store diverges from original\noriginal:  %d bytes\nreopened:  %d bytes",
					task.ID, kind, len(want), len(got))
			}
		}
	}
}

func queryJSON(t *testing.T, env *Env, query, task string) []byte {
	t.Helper()
	resp, err := evalJSON(env.Engine, query)
	if err != nil {
		t.Fatalf("%s: %v", task, err)
	}
	return resp.Body
}

func TestMeasureStorage(t *testing.T) {
	env, err := NewEnv(ScaleSmall)
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()
	rep, err := MeasureStorage(env, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Graphs != 3 || rep.Triples != env.Store.Len() {
		t.Fatalf("report shape: %+v", rep)
	}
	if rep.SnapshotBytes <= 0 || rep.NTriplesBytes <= 0 {
		t.Fatalf("sizes not recorded: %+v", rep)
	}
	if rep.ParseSeconds <= 0 || rep.ReopenSeconds <= 0 || rep.ParallelLoadSeconds <= 0 {
		t.Fatalf("timings not recorded: %+v", rep)
	}
	if rep.ReopenSpeedup <= 1 {
		t.Fatalf("snapshot reopen slower than re-parse: %+v", rep)
	}
	if FormatStorage(rep) == "" {
		t.Fatal("empty text rendering")
	}
}
