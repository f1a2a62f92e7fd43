package snapshot

import (
	"bytes"
	"reflect"
	"testing"

	"rdfframes/internal/store"
)

// TestSnapshotWithTombstonesRoundTrip: deletes are physical, so a store
// that has taken deletes snapshots exactly its remaining triples, and the
// reopened store streams them in the same order and snapshots to the same
// bytes.
func TestSnapshotWithTombstonesRoundTrip(t *testing.T) {
	st := testStore(t)
	// Delete every third triple of graph A through the batch API.
	var dels []store.UpdateOp
	for i, tr := range allTriples(st, gA) {
		if i%3 == 0 {
			dels = append(dels, store.UpdateOp{Graph: gA, Triple: tr})
		}
	}
	res, err := st.ApplyBatch(dels)
	if err != nil {
		t.Fatal(err)
	}
	if res.Deleted != len(dels) {
		t.Fatalf("Deleted = %d, want %d", res.Deleted, len(dels))
	}

	data := snapshotBytes(t, st)
	reopened, err := Read(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if reopened.Len() != st.Len() {
		t.Fatalf("reopened %d triples, want %d", reopened.Len(), st.Len())
	}
	for _, g := range []string{gA, gB} {
		if got, want := allTriples(reopened, g), allTriples(st, g); !reflect.DeepEqual(got, want) {
			t.Fatalf("graph %s: reopened stream diverges (%d vs %d triples)", g, len(got), len(want))
		}
	}
	if !bytes.Equal(snapshotBytes(t, reopened), data) {
		t.Fatal("snapshot bytes diverge between the mutated store and its reopened copy")
	}
}
