package bench

import (
	"fmt"
	"math"
	"time"

	"ironsafe"
	"ironsafe/internal/sql/exec"
	"ironsafe/internal/tpch"
)

// Results is the machine-readable benchmark record cmd/ironsafe-bench writes
// to BENCH_results.json: per-query simulated latencies for every Table 2
// configuration, the scs cost-breakdown fractions of Figure 8, and the scan
// pipeline's amortization counters — enough to track the perf trajectory of
// the secure scan path across PRs without re-parsing text tables.
type Results struct {
	ScaleFactor float64 `json:"scale_factor"`
	Queries     []int   `json:"queries"`
	// TimesMicros maps config abbreviation (hons/hos/vcs/scs/sos) to
	// per-query simulated latency in microseconds, keyed "q<N>".
	TimesMicros map[string]map[string]float64 `json:"times_micros"`
	// GeomeanMicros is the geometric mean latency per configuration.
	GeomeanMicros map[string]float64 `json:"geomean_micros"`
	// ScsBreakdown holds the Figure 8 cost fractions per query under scs.
	ScsBreakdown map[string]Breakdown `json:"scs_breakdown"`
	// ScsScan holds the scan-pipeline counters per query under scs
	// (storage-side, per-query deltas).
	ScsScan map[string]ScanCounters `json:"scs_scan"`
	// ScsTail maps query class (SQL shape) to its tail-latency summary under
	// scs, as reported by the monitor's tail telemetry.
	ScsTail map[string]TailClass `json:"scs_tail"`
	// TailEjections / TailReadmissions count latency-outlier soft-ejection
	// events observed during the scs run.
	TailEjections    int `json:"tail_ejections"`
	TailReadmissions int `json:"tail_readmissions"`
	// Ingest is the streaming-ingest throughput series: acked-write rate,
	// ack latency percentiles, and group-commit RPMB amortization.
	Ingest *IngestResult `json:"ingest"`
	// ExecBatch compares the vectorized operator pipeline (the default)
	// against row-at-a-time execution (ExecBatchRows=1) under scs.
	ExecBatch *ExecBatchResults `json:"exec_batch"`
}

// ExecBatchResults is the vectorized-executor comparison: the same scs
// cluster and queries, run once with the default columnar batches and once
// with the row-at-a-time pipeline. Rows are byte-identical by construction
// (the differential test enforces it); only the amortization differs —
// per-tuple operator dispatch and per-row enclave-boundary accounting versus
// one charge per ~4096-row batch.
type ExecBatchResults struct {
	// BatchRows is the vectorized pipeline's batch size.
	BatchRows int `json:"batch_rows"`
	// VecGeomeanMicros / RowGeomeanMicros are the scs geometric-mean
	// latencies under each pipeline; Speedup is row/vec.
	VecGeomeanMicros float64 `json:"vec_geomean_micros"`
	RowGeomeanMicros float64 `json:"row_geomean_micros"`
	Speedup          float64 `json:"speedup"`
	// VecTimesMicros / RowTimesMicros are the per-query latencies, keyed "q<N>".
	VecTimesMicros map[string]float64 `json:"vec_times_micros"`
	RowTimesMicros map[string]float64 `json:"row_times_micros"`
}

// TailClass is one query class's tail-latency record: exact nearest-rank
// percentiles over the class's simulated latencies, plus hedging activity.
type TailClass struct {
	Queries   int     `json:"queries"`
	P50Micros float64 `json:"p50_micros"`
	P95Micros float64 `json:"p95_micros"`
	P99Micros float64 `json:"p99_micros"`
	Hedges    int     `json:"hedges"`
	HedgeWins int     `json:"hedge_wins"`
}

// Breakdown is one query's Figure 8 cost split (fractions sum to 1).
type Breakdown struct {
	NDP       float64 `json:"ndp"`
	Freshness float64 `json:"freshness"`
	Decrypt   float64 `json:"decrypt"`
	Other     float64 `json:"other"`
}

// ScanCounters is one query's scan-pipeline work record.
type ScanCounters struct {
	ScanBatches       int64 `json:"scan_batches"`
	MerkleHashes      int64 `json:"merkle_hashes"`
	MerkleHashesSaved int64 `json:"merkle_hashes_saved"`
}

// jsonQueryKey names a query in the JSON maps.
func jsonQueryKey(qn int) string { return fmt.Sprintf("q%d", qn) }

// jsonModes lists the five Table 2 configurations in evaluation order.
var jsonModes = []ironsafe.Mode{
	ironsafe.HostOnlyNonSecure,
	ironsafe.HostOnlySecure,
	ironsafe.VanillaCS,
	ironsafe.IronSafe,
	ironsafe.StorageOnlySecure,
}

// CollectResults runs every query on all five configurations (built by
// jsonCluster) and assembles the machine-readable record.
func CollectResults(sf float64, queries []int) (*Results, error) {
	data := tpch.Generate(sf)
	res := &Results{
		ScaleFactor:   sf,
		Queries:       append([]int(nil), queries...),
		TimesMicros:   map[string]map[string]float64{},
		GeomeanMicros: map[string]float64{},
		ScsBreakdown:  map[string]Breakdown{},
		ScsScan:       map[string]ScanCounters{},
		ScsTail:       map[string]TailClass{},
	}
	for _, mode := range jsonModes {
		c, err := jsonCluster(mode, data)
		if err != nil {
			return nil, fmt.Errorf("results %s: %w", mode, err)
		}
		times := map[string]float64{}
		logSum, n := 0.0, 0
		for _, qn := range queries {
			t, stats, err := runQuery(c, tpch.Queries[qn])
			if err != nil {
				return nil, fmt.Errorf("results %s q%d: %w", mode, qn, err)
			}
			key := jsonQueryKey(qn)
			us := float64(t) / float64(time.Microsecond)
			times[key] = us
			if us > 0 {
				logSum += math.Log(us)
				n++
			}
			if mode == ironsafe.IronSafe {
				f := breakdownFractions(qn, stats)
				res.ScsBreakdown[key] = Breakdown{
					NDP: f.NDP, Freshness: f.Freshness, Decrypt: f.Decrypt, Other: f.Other,
				}
				res.ScsScan[key] = ScanCounters{
					ScanBatches:       stats.Storage.ScanBatches,
					MerkleHashes:      stats.Storage.MerkleHashes,
					MerkleHashesSaved: stats.Storage.MerkleHashesSaved,
				}
			}
		}
		res.TimesMicros[mode.String()] = times
		if n > 0 {
			res.GeomeanMicros[mode.String()] = math.Exp(logSum / float64(n))
		}
		if mode == ironsafe.IronSafe {
			tail := c.Monitor.TailReportNow()
			for _, tc := range tail.Classes {
				res.ScsTail[tc.Class] = TailClass{
					Queries:   tc.Queries,
					P50Micros: float64(tc.P50) / float64(time.Microsecond),
					P95Micros: float64(tc.P95) / float64(time.Microsecond),
					P99Micros: float64(tc.P99) / float64(time.Microsecond),
					Hedges:    tc.Hedges,
					HedgeWins: tc.HedgeWins,
				}
			}
			res.TailEjections = tail.Ejections
			res.TailReadmissions = tail.Readmissions
		}
	}
	eb, err := collectExecBatch(data, queries, res.TimesMicros[ironsafe.IronSafe.String()], res.GeomeanMicros[ironsafe.IronSafe.String()])
	if err != nil {
		return nil, fmt.Errorf("results exec_batch: %w", err)
	}
	res.ExecBatch = eb

	ing, err := Ingest(4, 50)
	if err != nil {
		return nil, fmt.Errorf("results ingest: %w", err)
	}
	res.Ingest = ing
	return res, nil
}

// jsonCluster builds the cluster CollectResults measures mode on. The hos
// cluster uses the same scaled-down EPC as the Fig 6 reproduction so its
// numbers stay comparable across figures.
func jsonCluster(mode ironsafe.Mode, data *tpch.Data) (*ironsafe.Cluster, error) {
	return newCluster(mode, data, func(cfg *ironsafe.Config) {
		if mode == ironsafe.HostOnlySecure {
			cfg.EPCLimitBytes = 4 << 20
		}
	})
}

// collectExecBatch reruns the scs queries with the row-at-a-time executor
// (ExecBatchRows=1) and pairs them with the vectorized series the main loop
// already measured (the scs run uses the default batched pipeline).
func collectExecBatch(data *tpch.Data, queries []int, vecTimes map[string]float64, vecGeomean float64) (*ExecBatchResults, error) {
	c, err := newCluster(ironsafe.IronSafe, data, func(cfg *ironsafe.Config) {
		cfg.ExecBatchRows = 1
	})
	if err != nil {
		return nil, err
	}
	eb := &ExecBatchResults{
		BatchRows:        exec.DefaultBatchRows,
		VecGeomeanMicros: vecGeomean,
		VecTimesMicros:   map[string]float64{},
		RowTimesMicros:   map[string]float64{},
	}
	logSum, n := 0.0, 0
	for _, qn := range queries {
		key := jsonQueryKey(qn)
		eb.VecTimesMicros[key] = vecTimes[key]
		t, _, err := runQuery(c, tpch.Queries[qn])
		if err != nil {
			return nil, fmt.Errorf("row-mode q%d: %w", qn, err)
		}
		us := float64(t) / float64(time.Microsecond)
		eb.RowTimesMicros[key] = us
		if us > 0 {
			logSum += math.Log(us)
			n++
		}
	}
	if n > 0 {
		eb.RowGeomeanMicros = math.Exp(logSum / float64(n))
	}
	if eb.VecGeomeanMicros > 0 {
		eb.Speedup = eb.RowGeomeanMicros / eb.VecGeomeanMicros
	}
	return eb, nil
}
