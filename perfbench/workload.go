package main

import (
	"crypto/sha256"
	"fmt"
	"math/rand" //ironsafe:allow cryptorand -- seeded workload generation (query order, arrival times, record contents); the values are public benchmark inputs, never key material
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"

	"ironsafe"
	"ironsafe/internal/pager"
	"ironsafe/internal/schema"
	"ironsafe/internal/sql/exec"
	"ironsafe/internal/tpch"
)

const (
	// scaleFactor keeps one pass of the 16 evaluated queries near 1.5 s of
	// wall time on a 2-core machine, so a 25 s run gives each query's median
	// latency over a dozen passes.
	scaleFactor  = 0.005
	benchClient  = "bench"
	accessPolicy = "read :- sessionKeyIs(bench)\nwrite :- sessionKeyIs(bench)"
	// hosEPCBytes is the scaled-down enclave page cache Fig 6 and
	// BENCH_results.json use for hos: the host-only working set overflows
	// it the way SF 3-5 overflows 96 MiB on the paper's hardware.
	hosEPCBytes = 4 << 20
	// setupRepeats is how many times an untraced run builds its cluster;
	// setup_s is the median.
	setupRepeats = 7
	// ackLimit is the ack p99 the saturation phase should stay within for
	// its throughput to count as sustained; the header flags a breach.
	ackLimit     = 250 * time.Millisecond
	createEvents = "CREATE TABLE events (id INTEGER, src TEXT, qty INTEGER)"
	// queueMax lets a stalled open-loop stream queue its backlog instead of
	// refusing it: no stream offers more records than this.
	queueMax = 1 << 14
)

// workload is one set of inputs the benchmark runs. After its closed loop
// of queries, every workload probes ingest alone on a fresh IronSafe
// cluster holding the same data: the uncontended ingest baseline, identical
// on every workload.
type workload struct {
	name    string
	mode    ironsafe.Mode
	queries []int
}

var workloads = map[string]workload{
	// The paper's system: executor, secure scan and offload do the work;
	// ingest, journal and RPMB sit idle during the query phase.
	"tpch-scs": {name: "tpch-scs", mode: ironsafe.IronSafe, queries: tpch.EvaluatedQueries},
	// The baseline of the paper's speedup. It bypasses partition,
	// storageengine and transport, and covers an EPC working set that fits
	// (q6) and one that overflows (q21).
	"tpch-hos": {name: "tpch-hos", mode: ironsafe.HostOnlySecure, queries: tpch.EvaluatedQueries},
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// now is the benchmark's clock: every latency it reports is real elapsed
// time, except the simulated ones read from QueryStats.Cost.
func now() time.Time {
	return time.Now() //ironsafe:allow wallclock -- the benchmark measures real elapsed time; simulated time comes only from QueryStats.Cost
}

// newCluster builds one deployment. data nil loads no TPC-H tables; events
// adds the ingest table; dev, when set, wraps each storage medium.
func newCluster(mode ironsafe.Mode, data *tpch.Data, events bool, dev func(string, pager.BlockDevice) pager.BlockDevice) (*ironsafe.Cluster, error) {
	cfg := ironsafe.Config{
		Mode:                 mode,
		ChannelTransport:     mode == ironsafe.IronSafe,
		StorageDeviceWrapper: dev,
	}
	if mode == ironsafe.HostOnlySecure {
		cfg.EPCLimitBytes = hosEPCBytes
	}
	c, err := ironsafe.NewCluster(cfg)
	if err != nil {
		return nil, err
	}
	if data != nil {
		if err := c.LoadTPCHData(data); err != nil {
			return nil, err
		}
	}
	if err := c.SetAccessPolicy(accessPolicy); err != nil {
		return nil, err
	}
	if events {
		if _, err := c.Exec(createEvents); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// timedSetup generates the data, builds and attests the cluster, loads it
// and installs the policy, repeats times; it returns the last cluster and
// every set-up's duration.
func timedSetup(w workload, repeats int) (*ironsafe.Cluster, *tpch.Data, []float64, error) {
	var c *ironsafe.Cluster
	var data *tpch.Data
	var secs []float64
	for i := 0; i < repeats; i++ {
		c, data = nil, nil
		runtime.GC() // each set-up starts from the same heap, not the last one's garbage
		start := now()
		data = tpch.Generate(scaleFactor)
		var err error
		c, err = newCluster(w.mode, data, false, nil)
		if err != nil {
			return nil, nil, nil, err
		}
		secs = append(secs, now().Sub(start).Seconds())
	}
	return c, data, secs, nil
}

// digest identifies a result's rows exactly.
type digest struct {
	rows int
	sum  [32]byte
}

func digestOf(res *exec.Result) digest {
	return digest{rows: len(res.Rows), sum: sha256.Sum256(schema.EncodeRows(res.Rows))}
}

// reference is the hons result of each query, the oracle every measured
// query is checked against.
type reference map[int]digest

// buildReference runs each query once on a host-only non-secure cluster
// over the same data, outside any timed phase.
func buildReference(data *tpch.Data, queries []int) (reference, error) {
	c, err := newCluster(ironsafe.HostOnlyNonSecure, data, false, nil)
	if err != nil {
		return nil, err
	}
	s := c.NewSession(benchClient)
	ref := reference{}
	for _, q := range queries {
		qr, err := s.Query(tpch.Queries[q])
		if err != nil {
			return nil, fmt.Errorf("hons reference q%d: %w", q, err)
		}
		ref[q] = digestOf(qr.Result)
	}
	return ref, nil
}

// tally counts attempted operations, failures (errors and refusals) and
// wrong outputs (wrong rows, lost acks, rows never acked). Wrong outputs
// are failures too, and make the run incorrect.
type tally struct {
	mu        sync.Mutex
	attempted int
	failed    int
	wrong     int
	notes     []string
}

func (t *tally) attempt(n int) {
	t.mu.Lock()
	t.attempted += n
	t.mu.Unlock()
}

func (t *tally) fail(wrong bool, format string, args ...any) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.failed++
	if wrong {
		t.wrong++
	}
	if len(t.notes) < 10 {
		t.notes = append(t.notes, fmt.Sprintf(format, args...))
	}
}

// heapSampler records the live heap, as the garbage collector measures it
// at the end of each cycle, until closed. A high quantile over the cycles
// is the run's peak working set; unlike the heap's size between
// collections, or the single largest cycle, it does not hinge on when
// collections happen to run.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	live []float64 // MiB per cycle; read only after close
}

func startHeapSampler() *heapSampler {
	runtime.GC() // start from the live heap alone, not an earlier phase's garbage
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	sample := []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}, {Name: "/gc/heap/live:bytes"}}
	go func() {
		defer close(h.done)
		tick := time.NewTicker(5 * time.Millisecond) //ironsafe:allow wallclock -- heap sampling period
		defer tick.Stop()
		var last uint64
		for {
			metrics.Read(sample)
			if cycles := sample[0].Value.Uint64(); cycles != last {
				last = cycles
				h.live = append(h.live, float64(sample[1].Value.Uint64())/(1<<20))
			}
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// close stops the sampling; it may be called on a nil sampler.
func (h *heapSampler) close() {
	if h == nil {
		return
	}
	close(h.stop)
	<-h.done
}

// seeded derives an independent generator for one role from the run seed,
// so concurrent roles never share a generator.
func seeded(seed int64, role int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*1000003 + role))
}
