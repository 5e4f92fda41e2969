package main

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"time"

	"ironsafe"
	"ironsafe/internal/ingest"
	"ironsafe/internal/pager"
	"ironsafe/internal/simtime"
	"ironsafe/internal/sql/exec"
	"ironsafe/internal/tpch"
)

// Roles that draw from their own seeded generator.
const (
	roleReader = iota + 1
	roleWarm
	roleRecords
	roleArrivals
)

// paperSecureSpeedup is the paper's average hos/scs speedup (Fig 6).
const paperSecureSpeedup = 2.3

// bench is one invocation's shared state.
type bench struct {
	o   options
	ref reference
	t   tally
}

func runWorkload(o options) (*result, []string, error) {
	b := &bench{o: o}
	if o.trace {
		return b.traced()
	}
	return b.untraced()
}

// untraced measures the end-to-end metrics with no instrumentation.
func (b *bench) untraced() (*result, []string, error) {
	w := b.o.workload
	c, data, setups, err := timedSetup(w, setupRepeats)
	if err != nil {
		return nil, nil, fmt.Errorf("setup: %w", err)
	}
	if b.ref, err = buildReference(data, w.queries); err != nil {
		return nil, nil, err
	}
	header := assumptions(b.o, *c.CostModel())
	qfn := sessionQuery(c)
	b.warm(qfn)
	heap := startHeapSampler()
	q := b.queries(qfn, b.o.window, pricedPasses)
	heap.close()
	run, _, err := b.ingestProbe(b.o.window, nil, nil)
	if err != nil {
		return nil, nil, err
	}
	header = append(header, ingestLines(run)...)
	header = append(header, fmt.Sprintf("samples: %d queries in %d passes (%d priced), %d set-ups, %d collections",
		q.queries, len(q.passQPS), len(q.passGeo), len(setups), len(heap.live)))
	medians := q.medians()
	m := map[string]metric{
		"setup_s":                {median(setups), "s"},
		"query_p50_ms":           {quantile(medians, 0.50), "ms"},
		"query_p90_ms":           {quantile(medians, 0.90), "ms"},
		"queries_per_s":          {median(q.passQPS), "1/s"},
		"sim_geomean_us":         {mean(q.passGeo), "sim_us"},
		"sim_total_us":           {mean(q.passSum), "sim_us"},
		"ack_p50_ms":             {ms(run.sat.p50), "ms"},
		"sustained_ingest_per_s": {run.sat.perSec, "1/s"},
		"ok_frac":                {1 - ratio(float64(b.t.failed), float64(b.t.attempted)), "frac"},
		"peak_heap_mb":           {quantile(heap.live, 0.9), "MiB"},
	}
	res, header := b.finish(m, header)
	return res, header, nil
}

// traced is the separate traced run. Phase A repeats the untraced query
// loop on a plain cluster for half the window; phase B runs it for the
// other half on a second cluster whose storage media are counted, with
// queries replayed call by call, and then probes ingest with every
// authorization and submission timed. Spans and I/O counts come from
// phase B; counts and simulated costs from the QueryStats of phase A's
// priced passes, the queries the end-to-end sim_* metrics price; the
// difference between the phases' query latencies is the tracing overhead.
func (b *bench) traced() (*result, []string, error) {
	w := b.o.workload
	c, data, _, err := timedSetup(w, 1)
	if err != nil {
		return nil, nil, fmt.Errorf("setup: %w", err)
	}
	if b.ref, err = buildReference(data, w.queries); err != nil {
		return nil, nil, err
	}
	dev := &deviceStats{}
	hc, err := newCluster(w.mode, data, false, dev.wrap)
	if err != nil {
		return nil, nil, fmt.Errorf("traced setup: %w", err)
	}
	model := *c.CostModel()
	header := assumptions(b.o, model)
	half := b.o.window / 2

	plain := sessionQuery(c)
	b.warm(plain)
	b.warm((&tracedCluster{c: hc, t: newTracer()}).query)

	qA := b.queries(plain, half, pricedPasses)
	tr := newTracer()
	tc := &tracedCluster{c: hc, t: tr}
	devBase := dev.snapshot()
	qB := b.queries(tc.query, half, 1)
	devQ := dev.snapshot().sub(devBase)
	run, ing, err := b.ingestProbe(half, tr, &deviceStats{})
	if err != nil {
		return nil, nil, err
	}
	spans := tr.snapshot()
	st := aggregate(spans)
	nq := float64(st.count[spanQuery])
	wireBytes, frames := float64(tc.wire.bytes.Load()), float64(tc.wire.frames.Load())

	// Calibration: the secure store sized like this cluster's tables, and
	// the channel at this run's mean frame size.
	cal, err := calibratePageReads(dataPages(c), 32, model)
	if err != nil {
		return nil, nil, fmt.Errorf("page-read calibration: %w", err)
	}
	frameBytes := int(ratio(wireBytes, frames))
	if frameBytes == 0 {
		frameBytes = pager.PageSize // hos opens no channels; time a page-sized frame
	}
	aead, err := calibrateFrames(frameBytes)
	if err != nil {
		return nil, nil, err
	}
	header = append(header,
		fmt.Sprintf("calibration: secure-store page read (decrypt + MAC + Merkle verify, %d pages in batches of 32) is %.2f us/page here; the model charges %.2f us on the host CPU and %.2f us on the storage CPU for the same %.2f hashes/page",
			cal.pages, cal.realUS, cal.modelHostUS, cal.modelStoreUS, cal.hashesPerPage),
		fmt.Sprintf("calibration: a %d B channel frame (this run's mean) costs %.2f us of AEAD seal, open and copy here; the model charges %.2f us of link time per message and nothing for AEAD",
			frameBytes, aead, us(model.PriceLink(int64(frameBytes), 1))))
	counter, err := counterpartGeomean(w.mode, data, w.queries)
	if err != nil {
		return nil, nil, err
	}
	hos, scs := mean(qA.passGeo), counter
	if w.mode == ironsafe.IronSafe {
		hos, scs = counter, hos
	}
	header = append(header, fmt.Sprintf("fidelity (not a gate): secure_speedup = hos/scs sim geomean = %.0f/%.0f us = %.2fx; the paper reports %.1fx",
		hos, scs, ratio(hos, scs), paperSecureSpeedup))
	header = append(header, ingestLines(run)...)
	header = append(header, fmt.Sprintf("samples: %d untraced and %d traced queries, %d priced, %d spans",
		qA.queries, qB.queries, len(qA.stats), len(spans)))

	perQuery := func(f func(ironsafe.QueryStats) int64) float64 {
		var sum int64
		for _, s := range qA.stats {
			sum += f(s)
		}
		return ratio(float64(sum), float64(len(qA.stats)))
	}
	simPerQuery := func(f func(simtime.QueryCost) time.Duration) float64 {
		var sum time.Duration
		for _, s := range qA.stats {
			sum += f(s.Cost)
		}
		return ratio(us(sum), float64(len(qA.stats)))
	}
	hashes := perQuery(func(s ironsafe.QueryStats) int64 { return s.Host.MerkleHashes + s.Storage.MerkleHashes })
	saved := perQuery(func(s ironsafe.QueryStats) int64 { return s.Host.MerkleHashesSaved + s.Storage.MerkleHashesSaved })

	m := map[string]metric{
		"trace.overhead_frac":      {ratio(qB.sumOfMedians(), qA.sumOfMedians()) - 1, "frac"},
		"trace.span_coverage_frac": {ratio(st.coveredUS, st.sumUS[spanQuery]), "frac"},

		"monitor.authorize_us": {median(st.authorizeUS), "us"},

		"partition.split_us":  {st.meanUS(spanSplit), "us"},
		"partition.fragments": {ratio(float64(tc.fragments.Load()), nq), "count"},

		"hostengine.host_phase_ms": {ratio(st.hostPhaseUS, nq) / 1000, "ms"},
		"hostengine.local_ms":      {ratio(st.sumUS[spanExecuteLocal], nq) / 1000, "ms"},
		"hostengine.bytes_shipped": {perQuery(func(s ironsafe.QueryStats) int64 { return s.BytesShipped }), "B"},

		"storageengine.offload_ms": {ratio(st.sumUS[spanServe], nq) / 1000, "ms"},
		"storageengine.offloads":   {perQuery(func(s ironsafe.QueryStats) int64 { return int64(s.Offloads) }), "count"},

		"transport.wire_bytes":        {ratio(wireBytes, nq), "B"},
		"transport.frames":            {ratio(frames, nq), "count"},
		"transport.read_wait_ms":      {ratio(float64(tc.wire.readWaitNS.Load()), nq) / 1e6, "ms"},
		"transport.aead_us_per_frame": {aead, "us"},

		"exec.tuples.host":      {perQuery(func(s ironsafe.QueryStats) int64 { return s.Host.TuplesProcessed }), "count"},
		"exec.tuples.storage":   {perQuery(func(s ironsafe.QueryStats) int64 { return s.Storage.TuplesProcessed }), "count"},
		"exec.batches.host":     {perQuery(func(s ironsafe.QueryStats) int64 { return s.Host.Batches }), "count"},
		"exec.batches.storage":  {perQuery(func(s ironsafe.QueryStats) int64 { return s.Storage.Batches }), "count"},
		"go.alloc_mb_per_query": {qA.allocMB, "MiB"},

		"pager.pages_read":     {perQuery(func(s ironsafe.QueryStats) int64 { return s.Host.PagesRead + s.Storage.PagesRead }), "count"},
		"pager.scan_batches":   {perQuery(func(s ironsafe.QueryStats) int64 { return s.Host.ScanBatches + s.Storage.ScanBatches }), "count"},
		"pager.device_reads":   {ratio(float64(devQ.reads), nq), "count"},
		"pager.device_read_ms": {ratio(float64(devQ.readNS), nq) / 1e6, "ms"},

		"securestore.pages_decrypted":               {perQuery(func(s ironsafe.QueryStats) int64 { return s.Host.PagesDecrypted + s.Storage.PagesDecrypted }), "count"},
		"securestore.merkle_hashes":                 {hashes, "count"},
		"securestore.hash_saved_frac":               {ratio(saved, saved+hashes), "frac"},
		"securestore.read_us_per_page":              {cal.realUS, "us"},
		"securestore.device_write_bytes_per_record": {ratio(float64(ing.writeBytes), float64(ing.acked)), "B"},

		"sgx.ecalls":     {perQuery(func(s ironsafe.QueryStats) int64 { return s.Host.EnclaveTransitions }), "count"},
		"sgx.epc_faults": {perQuery(func(s ironsafe.QueryStats) int64 { return s.Host.EPCFaults }), "count"},

		"trustzone.rpmb_writes":    {float64(ing.rpmbWrites), "count"},
		"trustzone.world_switches": {float64(ing.worldSwitches), "count"},

		"ack_p99_ms":                  {ms(run.sat.p99), "ms"},
		"ingest.batches":              {float64(ing.batches), "count"},
		"ingest.records_per_batch":    {ratio(float64(ing.acked), float64(ing.batches)), "count"},
		"ingest.refused":              {float64(ing.refused), "count"},
		"ingest.generator_lag_ms":     {quantile(run.open.lagsMS, 0.99), "ms"},
		"ingest.open_loop_ack_p50_ms": {ms(run.open.p50), "ms"},
		"ingest.open_loop_ack_p99_ms": {ms(run.open.p99), "ms"},

		"sim.host.compute_us":      {simPerQuery(func(c simtime.QueryCost) time.Duration { return c.Host.Compute }), "sim_us"},
		"sim.host.pageio_us":       {simPerQuery(func(c simtime.QueryCost) time.Duration { return c.Host.PageIO }), "sim_us"},
		"sim.host.decrypt_us":      {simPerQuery(func(c simtime.QueryCost) time.Duration { return c.Host.Decrypt }), "sim_us"},
		"sim.host.freshness_us":    {simPerQuery(func(c simtime.QueryCost) time.Duration { return c.Host.Freshness }), "sim_us"},
		"sim.host.tee_us":          {simPerQuery(func(c simtime.QueryCost) time.Duration { return c.Host.TEE }), "sim_us"},
		"sim.storage.compute_us":   {simPerQuery(func(c simtime.QueryCost) time.Duration { return c.Storage.Compute }), "sim_us"},
		"sim.storage.pageio_us":    {simPerQuery(func(c simtime.QueryCost) time.Duration { return c.Storage.PageIO }), "sim_us"},
		"sim.storage.decrypt_us":   {simPerQuery(func(c simtime.QueryCost) time.Duration { return c.Storage.Decrypt }), "sim_us"},
		"sim.storage.freshness_us": {simPerQuery(func(c simtime.QueryCost) time.Duration { return c.Storage.Freshness }), "sim_us"},
		"sim.storage.tee_us":       {simPerQuery(func(c simtime.QueryCost) time.Duration { return c.Storage.TEE }), "sim_us"},
		"sim.transfer_us":          {simPerQuery(func(c simtime.QueryCost) time.Duration { return c.Transfer }), "sim_us"},
	}
	for _, qn := range tpch.EvaluatedQueries {
		m[fmt.Sprintf("sim_us.q%d", qn)] = metric{median(qA.perSim[qn]), "sim_us"}
		m[fmt.Sprintf("wall_ms.q%d", qn)] = metric{median(qA.perWall[qn]), "ms"}
	}
	res, header := b.finish(m, header)
	return res, header, nil
}

// warm runs one checked pass before anything is timed, so caches fill and
// lazy set-up finishes.
func (b *bench) warm(fn queryFn) {
	runPasses(fn, b.o.workload.queries, b.ref, seeded(b.o.seed, roleWarm), 1, func() bool { return true }, &b.t)
}

// queries runs the workload's closed loop of queries with fn for window,
// and for at least minPasses passes.
func (b *bench) queries(fn queryFn, window time.Duration, minPasses int) *queryLog {
	return runPasses(fn, b.o.workload.queries, b.ref, seeded(b.o.seed, roleReader), minPasses, deadline(window), &b.t)
}

// ingestProbe runs the ingest probe for its share of window, alone on a
// fresh IronSafe cluster holding the same data, and checks the table. With
// tr set the pipeline is traced; dev, when set, counts the medium the
// writes land on.
func (b *bench) ingestProbe(window time.Duration, tr *tracer, dev *deviceStats) (*ingestRun, ingestCounters, error) {
	debug.FreeOSMemory() // reclaim what the query phase left behind, now rather than during the probe: it measures ingest alone
	var wrap func(string, pager.BlockDevice) pager.BlockDevice
	if dev != nil {
		wrap = dev.wrap
	}
	c, err := newCluster(ironsafe.IronSafe, tpch.Generate(scaleFactor), true, wrap)
	if err != nil {
		return nil, ingestCounters{}, fmt.Errorf("ingest cluster: %w", err)
	}
	var auth ingest.Authorizer
	if tr != nil {
		auth = spanAuthorizer{inner: c.Monitor, t: tr}
	}
	pipe, err := newPipeline(c, auth)
	if err != nil {
		return nil, ingestCounters{}, err
	}
	defer pipe.Close()
	submit := submitFn(pipe.Submit)
	if tr != nil {
		submit = tracedSubmit(pipe, tr)
	}
	log := newEventLog(seeded(b.o.seed, roleRecords))
	warmIngest(submit, log, &b.t)
	var run *ingestRun
	counts := countIngest(c, pipe, dev, func() {
		run = runIngest(submit, log, window, seeded(b.o.seed, roleArrivals), &b.t)
	})
	return run, counts, verifyEvents(c, log, &b.t)
}

// ingestCounters are the ingest layers' counts over one plan.
type ingestCounters struct {
	acked, batches, refused   uint64
	rpmbWrites, worldSwitches int64
	writeBytes                int64
}

// countIngest runs fn and returns what the pipeline, the storage meter and
// (when dev is set) the medium counted meanwhile.
func countIngest(c *ironsafe.Cluster, pipe *ingest.Pipeline, dev *deviceStats, fn func()) ingestCounters {
	s0, m0 := pipe.Stats(), c.StorageMeter.Snapshot()
	var d0 deviceSnapshot
	if dev != nil {
		d0 = dev.snapshot()
	}
	fn()
	s1, m1 := pipe.Stats(), c.StorageMeter.Snapshot()
	out := ingestCounters{
		acked:         s1.Acked - s0.Acked,
		batches:       s1.Batches - s0.Batches,
		refused:       s1.Overloaded - s0.Overloaded,
		rpmbWrites:    m1.RPMBWrites - m0.RPMBWrites,
		worldSwitches: m1.WorldSwitches - m0.WorldSwitches,
	}
	if dev != nil {
		out.writeBytes = dev.snapshot().sub(d0).writeBytes
	}
	return out
}

// dataPages is how many heap pages the cluster's tables occupy.
func dataPages(c *ironsafe.Cluster) int {
	db := c.AuthoritativeDB()
	pages := 0
	for _, name := range db.TableNames() {
		if tab, err := db.Table(name); err == nil {
			pages += tab.NumPages()
		}
	}
	return pages
}

// counterpartGeomean runs one pass in the canonical order on the other
// secure mode, for the hos/scs fidelity line.
func counterpartGeomean(mode ironsafe.Mode, data *tpch.Data, queries []int) (float64, error) {
	other := ironsafe.IronSafe
	if mode == ironsafe.IronSafe {
		other = ironsafe.HostOnlySecure
	}
	c, err := newCluster(other, data, false, nil)
	if err != nil {
		return 0, err
	}
	s := c.NewSession(benchClient)
	var sims []float64
	for _, q := range queries {
		qr, err := s.Query(tpch.Queries[q])
		if err != nil {
			return 0, fmt.Errorf("%s q%d: %w", other, q, err)
		}
		sims = append(sims, us(qr.Stats.Cost.Total()))
	}
	return geomean(sims), nil
}

// assumptions are the header lines every run prints.
func assumptions(o options, model simtime.CostModel) []string {
	w := o.workload
	epc := model.TEE.EPCLimitBytes
	if w.mode == ironsafe.HostOnlySecure {
		epc = hosEPCBytes
	}
	return []string{
		fmt.Sprintf("perfbench workload=%s seed=%d seconds=%g trace=%v", w.name, o.seed, o.window.Seconds(), o.trace),
		fmt.Sprintf("scale factor %g (tpch.Generate's fixed data seed), nproc=%d, GOMAXPROCS=%d, %s",
			scaleFactor, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version()),
		fmt.Sprintf("cluster: mode=%s, channel transport=%v, host EPC limit %d MiB, ExecBatchRows=%d (exec.DefaultBatchRows), ScanBatchPages=32 (Config default)",
			w.mode, w.mode == ironsafe.IronSafe, epc>>20, exec.DefaultBatchRows),
		fmt.Sprintf("cost model: PriceCPU divides all storage-side work by %d cores, but the executor runs each offloaded fragment on one goroutine and only ReadPages decryption runs in parallel; host work is priced on 1 core",
			model.Storage.Cores),
		fmt.Sprintf("queries: closed loop, 1 client, q%v in a seeded order each pass, at least %d passes; latency is Session.Query wall time; simulated time is QueryStats.Cost.Total()", w.queries, pricedPasses),
		fmt.Sprintf("queries: query_p50_ms and query_p90_ms are quantiles over the queries' median latencies; queries_per_s is the median over passes; sim_* are means over the first %d passes, whatever the window", pricedPasses),
		fmt.Sprintf("ingest (alone, after the query phase, on a fresh IronSafe cluster holding the same data, for %.2f of the window): first an open-loop stream at %d records/s with seeded Poisson arrivals, latency from each record's due time (per-layer ingest.open_loop_*); then %d closed-loop writers saturate the pipeline",
			probeLength, probeRate, saturationWriters),
		fmt.Sprintf("ingest: sustained_ingest_per_s and ack_p50_ms come from the saturation phase, as medians over %v segments: the highest rate the pipeline holds without a backlog, and the ack latency at that rate, whose p99 (per-layer ack_p99_ms) should stay within %v",
			satSegment, ackLimit),
	}
}

// ingestLines reports both ingest phases.
func ingestLines(run *ingestRun) []string {
	o, c := run.open, run.sat
	within := "within"
	if c.p99 > ackLimit {
		within = "OVER"
	}
	return []string{
		fmt.Sprintf("ingest open loop: %d records, %d acked, ack p50 %.2f ms, p99 %.2f ms, drain %.2f ms, generator lag p99 %.2f ms",
			o.records, o.acked, ms(o.p50), ms(o.p99), ms(o.drain), quantile(o.lagsMS, 0.99)),
		fmt.Sprintf("ingest saturation: %d writers acked %d records in %.2f s, %d segments at a median %.1f/s, ack p50 %.2f ms, p99 %.2f ms (%s the %v limit)",
			c.writers, c.acked, c.elapsed.Seconds(), c.segments, c.perSec, ms(c.p50), ms(c.p99), within, ackLimit),
	}
}

// finish builds the result from the tally and adds its failure notes to
// the header.
func (b *bench) finish(m map[string]metric, header []string) (*result, []string) {
	for _, n := range b.t.notes {
		header = append(header, "failure: "+n)
	}
	return &result{Correct: b.t.wrong == 0, Attempted: b.t.attempted, Failed: b.t.failed, Metrics: m}, header
}
