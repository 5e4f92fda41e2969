package bench

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"ironsafe"
	"ironsafe/internal/tpch"
)

// regressionSlack is how far a query's simulated time may exceed the
// committed record before TestNoQueryRegression fails.
const regressionSlack = 0.005

// TestNoQueryRegression is the per-query gate behind the geomean: it re-runs
// the scs and hos series exactly as CollectResults does, at the committed
// BENCH_results.json's scale factor, and fails if any query's simulated time
// exceeds its recorded times_micros value by more than regressionSlack. A
// change that lowers a time should regenerate the record (`make benchjson`)
// so the gate follows it down.
func TestNoQueryRegression(t *testing.T) {
	blob, err := os.ReadFile(filepath.Join("..", "..", "BENCH_results.json"))
	if err != nil {
		t.Fatal(err)
	}
	var rec Results
	if err := json.Unmarshal(blob, &rec); err != nil {
		t.Fatal(err)
	}
	data := tpch.Generate(rec.ScaleFactor)
	for _, mode := range []ironsafe.Mode{ironsafe.IronSafe, ironsafe.HostOnlySecure} {
		want := rec.TimesMicros[mode.String()]
		c, err := jsonCluster(mode, data)
		if err != nil {
			t.Fatal(err)
		}
		for _, qn := range rec.Queries {
			d, _, err := runQuery(c, tpch.Queries[qn])
			if err != nil {
				t.Fatalf("%s q%d: %v", mode, qn, err)
			}
			key := jsonQueryKey(qn)
			got := float64(d) / float64(time.Microsecond)
			if limit := want[key] * (1 + regressionSlack); got > limit {
				t.Errorf("%s %s: %.3f µs simulated, record %.3f µs (limit %.3f µs)",
					mode, key, got, want[key], limit)
			}
		}
	}
}
