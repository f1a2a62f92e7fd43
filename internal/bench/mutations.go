package bench

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"rdfframes/internal/datagen"
	"rdfframes/internal/snapshot"
	"rdfframes/internal/sparql"
	"rdfframes/internal/store"
)

// The mutations workload measures the write path end to end: SPARQL UPDATE
// batches through the engine (WAL fsync included) and crash recovery — a kill-9 simulated by discarding the
// mutated store and rebuilding it from the pre-mutation snapshot plus a WAL
// replay. The headline correctness number is ByteIdentical: every Figure-5
// query must return byte-identical SPARQL JSON on the recovered store and on
// the store that never crashed.

// Mutation workload shape: insertBatches batches of opsPerBatch triples are
// inserted, then deleted again (leaving one batch to a DELETE WHERE sweep),
// so the workload is net-zero and the recovered store must match the base
// dataset plus nothing.
const (
	mutationBatches     = 32
	mutationOpsPerBatch = 64
)

// mutationGraph is the graph the workload writes into (the largest of the
// three, so every write rebuilds a real-sized index).
var mutationGraph = datagen.DBpediaURI

// MutationsReport holds the write-path numbers.
type MutationsReport struct {
	Batches     int `json:"batches"`
	OpsPerBatch int `json:"ops_per_batch"`
	// Inserted / Deleted are total triples changed across the workload.
	Inserted int `json:"inserted"`
	Deleted  int `json:"deleted"`
	// InsertSeconds / DeleteSeconds time the batched UPDATE requests through
	// the engine, WAL append + fsync included.
	InsertSeconds float64 `json:"insert_seconds"`
	DeleteSeconds float64 `json:"delete_seconds"`
	// InsertTriplesPerSec / DeleteTriplesPerSec are the derived throughputs.
	InsertTriplesPerSec float64 `json:"insert_triples_per_sec"`
	DeleteTriplesPerSec float64 `json:"delete_triples_per_sec"`
	// WALBytes is the log size after the full workload, before recovery.
	WALBytes int64 `json:"wal_bytes"`
	// RecoverSeconds times OpenWAL + Replay onto the freshly-reopened
	// snapshot (the crash-recovery path); ReplayBatches counts the committed
	// batches it applied.
	RecoverSeconds float64 `json:"recover_seconds"`
	ReplayBatches  int     `json:"replay_batches"`
	// ByteIdentical reports that every Figure-5 query answered byte-identical
	// SPARQL JSON on the recovered store and the uninterrupted one.
	ByteIdentical bool `json:"byte_identical"`
}

// MeasureMutations runs the write-path workload. walDir is where the log
// file lives ("" uses a temp directory).
func MeasureMutations(env *Env, walDir string) (*MutationsReport, error) {
	if walDir == "" {
		dir, err := os.MkdirTemp("", "rdfframes-mutations")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		walDir = dir
	}
	walPath := filepath.Join(walDir, "mutations.wal")

	// The pre-mutation snapshot is the durable base state the crash recovers
	// onto — exactly what -write-snapshot would have persisted.
	var snap bytes.Buffer
	if err := snapshot.Write(&snap, env.Store); err != nil {
		return nil, fmt.Errorf("mutations: snapshot base: %w", err)
	}
	liveStore, err := snapshot.Read(bytes.NewReader(snap.Bytes()))
	if err != nil {
		return nil, err
	}
	live := sparql.NewEngine(liveStore)
	live.Parallelism = env.Engine.Parallelism
	wal, rec, err := store.OpenWAL(walPath)
	if err != nil {
		return nil, err
	}
	if len(rec.Batches) > 0 || rec.Damage != nil {
		return nil, fmt.Errorf("mutations: WAL %s not fresh", walPath)
	}
	live.SetWAL(wal)

	rep := &MutationsReport{Batches: mutationBatches, OpsPerBatch: mutationOpsPerBatch}
	ctx := context.Background()

	// Insert phase: mutationBatches atomic UPDATE requests, one fsync each.
	start := time.Now()
	for b := 0; b < mutationBatches; b++ {
		res, err := live.Update(ctx, insertBatch(b), fmt.Sprintf("mut-ins-%d", b))
		if err != nil {
			return nil, fmt.Errorf("mutations: insert batch %d: %w", b, err)
		}
		rep.Inserted += res.Inserted
	}
	rep.InsertSeconds = time.Since(start).Seconds()

	// Delete phase: all but the last batch via DELETE DATA, the last via a
	// DELETE WHERE sweep over the workload predicate.
	start = time.Now()
	for b := 0; b < mutationBatches-1; b++ {
		res, err := live.Update(ctx, deleteBatch(b), fmt.Sprintf("mut-del-%d", b))
		if err != nil {
			return nil, fmt.Errorf("mutations: delete batch %d: %w", b, err)
		}
		rep.Deleted += res.Deleted
	}
	sweep := `DELETE WHERE { GRAPH <` + mutationGraph + `> { ?s <http://bench/mut/p> ?o } }`
	res, err := live.Update(ctx, sweep, "mut-sweep")
	if err != nil {
		return nil, fmt.Errorf("mutations: DELETE WHERE sweep: %w", err)
	}
	rep.Deleted += res.Deleted
	rep.DeleteSeconds = time.Since(start).Seconds()
	if rep.InsertSeconds > 0 {
		rep.InsertTriplesPerSec = float64(rep.Inserted) / rep.InsertSeconds
	}
	if rep.DeleteSeconds > 0 {
		rep.DeleteTriplesPerSec = float64(rep.Deleted) / rep.DeleteSeconds
	}

	if size, err := wal.Size(); err == nil {
		rep.WALBytes = size
	}
	liveDigests, err := figure5Digests(env, live)
	if err != nil {
		return nil, err
	}
	wal.Close() // crash: the mutated in-memory store is lost

	// Recovery: reopen the snapshot, replay the committed WAL tail.
	recovered, err := snapshot.Read(bytes.NewReader(snap.Bytes()))
	if err != nil {
		return nil, err
	}
	start = time.Now()
	wal2, rec2, err := store.OpenWAL(walPath)
	if err != nil {
		return nil, fmt.Errorf("mutations: reopening WAL: %w", err)
	}
	defer wal2.Close()
	if rec2.Damage != nil {
		return nil, fmt.Errorf("mutations: WAL damaged after clean shutdown: %v", rec2.Damage)
	}
	if _, err := rec2.Replay(recovered); err != nil {
		return nil, fmt.Errorf("mutations: replay: %w", err)
	}
	rep.RecoverSeconds = time.Since(start).Seconds()
	rep.ReplayBatches = len(rec2.Batches)

	recEng := sparql.NewEngine(recovered)
	recEng.Parallelism = env.Engine.Parallelism
	recDigests, err := figure5Digests(env, recEng)
	if err != nil {
		return nil, err
	}
	rep.ByteIdentical = liveDigests == recDigests
	return rep, nil
}

// insertBatch builds the b-th INSERT DATA request: opsPerBatch fresh triples
// under the workload predicate (IRIs and literals, so the WAL term codec
// round-trips both shapes).
func insertBatch(b int) string {
	var sb strings.Builder
	sb.WriteString(`INSERT DATA { GRAPH <` + mutationGraph + `> {`)
	for i := 0; i < mutationOpsPerBatch; i++ {
		n := b*mutationOpsPerBatch + i
		if i%2 == 0 {
			fmt.Fprintf(&sb, " <http://bench/mut/s%d> <http://bench/mut/p> <http://bench/mut/o%d> .", n, n)
		} else {
			fmt.Fprintf(&sb, " <http://bench/mut/s%d> <http://bench/mut/p> \"value %d\" .", n, n)
		}
	}
	sb.WriteString(" } }")
	return sb.String()
}

// deleteBatch is the DELETE DATA mirror of insertBatch(b).
func deleteBatch(b int) string {
	s := insertBatch(b)
	return "DELETE DATA" + strings.TrimPrefix(s, "INSERT DATA")
}

// figure5Digests evaluates every Figure-5 expert query on eng and digests
// the concatenated SPARQL JSON bodies. env supplies only the query texts.
func figure5Digests(env *Env, eng *sparql.Engine) (string, error) {
	h := sha256.New()
	for _, task := range Synthetic() {
		res, err := eng.Query(task.Expert(env))
		if err != nil {
			return "", fmt.Errorf("mutations: %s: %w", task.ID, err)
		}
		body, err := res.MarshalJSON()
		if err != nil {
			return "", err
		}
		fmt.Fprintf(h, "%s %d ", task.ID, len(body))
		h.Write(body)
	}
	return fmt.Sprintf("%x", h.Sum(nil)), nil
}

// FormatMutations renders the write-path numbers as text.
func FormatMutations(r *MutationsReport) string {
	var sb strings.Builder
	sb.WriteString("Mutations: SPARQL UPDATE, WAL durability, and crash recovery\n")
	fmt.Fprintf(&sb, "  batches              %d x %d ops\n", r.Batches, r.OpsPerBatch)
	fmt.Fprintf(&sb, "  insert               %d triples in %.4fs (%.0f triples/s, fsync per batch)\n",
		r.Inserted, r.InsertSeconds, r.InsertTriplesPerSec)
	fmt.Fprintf(&sb, "  delete               %d triples in %.4fs (%.0f triples/s)\n",
		r.Deleted, r.DeleteSeconds, r.DeleteTriplesPerSec)
	fmt.Fprintf(&sb, "  wal size             %d bytes\n", r.WALBytes)
	fmt.Fprintf(&sb, "  recover              %d batches replayed in %.4fs\n", r.ReplayBatches, r.RecoverSeconds)
	fmt.Fprintf(&sb, "  figure-5 after crash byte-identical=%v\n", r.ByteIdentical)
	return sb.String()
}
