package bench

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"strings"
	"time"

	"rdfframes/internal/dataframe"
	"rdfframes/internal/sparql"
)

// The features figure measures the GML feature-extraction pipeline end to
// end on the synthetic DBpedia graph: property-path queries (sequence and
// transitive closure) under serial vs parallel evaluation with the
// byte-identity check, store-side topology-feature extraction, and the
// streaming CSV export with its bounded-memory assertion.

// FeaturesReport captures the feature-pipeline benchmark: property paths,
// topology features, and the streaming export.
type FeaturesReport struct {
	Workers    int `json:"workers"`
	GOMAXPROCS int `json:"gomaxprocs"`
	BestOf     int `json:"best_of"`

	// PathQueries compare Parallelism 1 (baseline) against the report's
	// worker count (candidate), as the parallel ablation does: the
	// determinism contract extends to path operators.
	PathQueries []AblationQuery `json:"path_queries"`

	// Topology-feature extraction: distinct nodes featurized, the 2-hop
	// cap used, and the extraction time.
	FeatureNodes   int     `json:"feature_nodes"`
	FeatureHopCap  int     `json:"feature_hop_cap"`
	FeatureSeconds float64 `json:"feature_seconds"`

	// Streaming export: rows and bytes streamed, time taken, the encoder's
	// chunk size, the peak bytes it ever buffered, and whether that peak
	// stayed within bounds (the export never materializes the frame).
	ExportRows            int     `json:"export_rows"`
	ExportBytes           int64   `json:"export_bytes"`
	ExportSeconds         float64 `json:"export_seconds"`
	ExportChunkBytes      int     `json:"export_chunk_bytes"`
	ExportPeakBufferBytes int     `json:"export_peak_buffer_bytes"`
	ExportBounded         bool    `json:"export_bounded"`
}

// featurePathQueries is the property-path workload: a two-step sequence
// path, a transitive closure seeded by a bound variable, and a zero-or-more
// closure under a join. All run on the synthetic DBpedia graph.
func featurePathQueries() []struct{ id, query string } {
	const prefixes = `PREFIX dbpp: <http://dbpedia.org/property/>
PREFIX dcterms: <http://purl.org/dc/terms/>
`
	return []struct{ id, query string }{
		{"seq", prefixes + `SELECT * FROM <http://dbpedia.org> WHERE {
  ?movie dbpp:starring/dbpp:birthPlace ?country .
}`},
		{"plus", prefixes + `SELECT * FROM <http://dbpedia.org> WHERE {
  ?movie dbpp:starring+ ?actor .
}`},
		{"star", prefixes + `SELECT * FROM <http://dbpedia.org> WHERE {
  ?movie dcterms:subject ?category .
  ?movie dbpp:starring* ?reach .
}`},
	}
}

// featureNodeQuery selects the node set the topology features are computed
// for: every entity appearing as a starring actor.
const featureNodeQuery = `PREFIX dbpp: <http://dbpedia.org/property/>
SELECT ?actor FROM <http://dbpedia.org> WHERE {
  ?movie dbpp:starring ?actor .
}`

// featureExportQuery is the frame streamed through the CSV exporter: a
// sequence path fanning movies out to actor birthplaces, wide enough that
// its CSV spans many chunks.
const featureExportQuery = `PREFIX dbpp: <http://dbpedia.org/property/>
PREFIX rdfs: <http://www.w3.org/2000/01/rdf-schema#>
SELECT * FROM <http://dbpedia.org> WHERE {
  ?movie dbpp:starring ?actor .
  ?actor dbpp:birthPlace ?country .
  ?actor rdfs:label ?name .
}`

// featureHopCap bounds each node's 2-hop neighborhood count; matches the
// engine default so the figure measures the documented configuration.
const featureHopCap = sparql.DefaultHopCap

// MeasureFeatures runs the feature-pipeline workload. workers follows the
// parallel ablation's semantics (<= 0 resolves to GOMAXPROCS, < 2 is an
// error, since the byte-identity half compares against serial evaluation).
func MeasureFeatures(env *Env, workers, bestOf int, timeout time.Duration) (*FeaturesReport, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers < 2 {
		return nil, fmt.Errorf("bench features: needs >= 2 workers to compare against serial, got %d (use -parallel)", workers)
	}
	if bestOf < 1 {
		bestOf = 1
	}
	serialEng := newAblationEngine(env, timeout, 1, nil)
	parEng := newAblationEngine(env, timeout, workers, nil)

	rep := &FeaturesReport{Workers: workers, GOMAXPROCS: runtime.GOMAXPROCS(0), BestOf: bestOf}

	// Property paths: serial vs parallel timings plus byte-identity.
	for _, task := range featurePathQueries() {
		pq, err := compareQuery(serialEng, parEng, task.id, task.query, bestOf)
		if err != nil {
			return nil, fmt.Errorf("bench features %s: %w", task.id, err)
		}
		rep.PathQueries = append(rep.PathQueries, pq)
	}

	// Topology features: KG → feature matrix on the store's indexes.
	spec := sparql.FeatureSpec{Query: featureNodeQuery, Var: "actor", HopCap: featureHopCap}
	feats, err := env.Engine.Features(context.Background(), spec)
	if err != nil {
		return nil, fmt.Errorf("bench features: extraction: %w", err)
	}
	rep.FeatureNodes = len(feats.Rows)
	rep.FeatureHopCap = featureHopCap
	rep.FeatureSeconds, err = timeBestSeconds(bestOf, func() error {
		_, err := env.Engine.Features(context.Background(), spec)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("bench features: extraction timing: %w", err)
	}

	// Streaming export: rows flow through a bounded chunk buffer into a
	// counting sink; the peak buffer size is the memory assertion.
	rep.ExportChunkBytes = dataframe.DefaultChunkBytes
	export := func() (rows int, bytesOut int64, peak int, err error) {
		cw := &countingDiscard{}
		stream := dataframe.NewCSVStream(cw, rep.ExportChunkBytes, false)
		rows, err = env.Engine.Export(context.Background(), featureExportQuery, stream)
		if err != nil {
			return 0, 0, 0, err
		}
		if err := stream.Flush(); err != nil {
			return 0, 0, 0, err
		}
		return rows, cw.n, stream.PeakBufferBytes(), nil
	}
	rows, bytesOut, peak, err := export()
	if err != nil {
		return nil, fmt.Errorf("bench features: export: %w", err)
	}
	rep.ExportRows = rows
	rep.ExportBytes = bytesOut
	rep.ExportPeakBufferBytes = peak
	// Bounded: the encoder drains whenever its buffer crosses the chunk
	// size, so the peak may exceed it by at most one row's worth of CSV.
	// Twice the chunk size is a generous row allowance; a peak beyond that
	// means the export materialized more than it streamed.
	rep.ExportBounded = peak <= 2*rep.ExportChunkBytes
	rep.ExportSeconds, err = timeBestSeconds(bestOf, func() error {
		_, _, _, err := export()
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("bench features: export timing: %w", err)
	}
	return rep, nil
}

// countingDiscard counts bytes written and drops them.
type countingDiscard struct{ n int64 }

func (cw *countingDiscard) Write(p []byte) (int, error) {
	cw.n += int64(len(p))
	return len(p), nil
}

var _ io.Writer = (*countingDiscard)(nil)

// FormatFeatures renders the feature-pipeline numbers as a text table.
func FormatFeatures(rep *FeaturesReport) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Feature pipeline: property paths serial vs %d morsel workers (GOMAXPROCS=%d), topology features, streaming export\n",
		rep.Workers, rep.GOMAXPROCS)
	sb.WriteString(formatAblationQueries("path", "serial", "parallel", rep.PathQueries))
	fmt.Fprintf(&sb, "topology features: %d nodes (2-hop cap %d) in %.4fs\n",
		rep.FeatureNodes, rep.FeatureHopCap, rep.FeatureSeconds)
	bounded := "bounded"
	if !rep.ExportBounded {
		bounded = "UNBOUNDED"
	}
	fmt.Fprintf(&sb, "streaming export: %d rows, %d bytes in %.4fs; peak buffer %d of %d-byte chunks (%s, best of %d)\n",
		rep.ExportRows, rep.ExportBytes, rep.ExportSeconds,
		rep.ExportPeakBufferBytes, rep.ExportChunkBytes, bounded, rep.BestOf)
	return sb.String()
}
