package main

import (
	"fmt"
	"math/rand" //ironsafe:allow cryptorand -- seeded arrival times and record contents; public benchmark inputs, never key material
	"sort"
	"sync"
	"time"

	"ironsafe"
	"ironsafe/internal/ingest"
)

// event is one ingested record, as written and as read back.
type event struct {
	id  int64
	src string
	qty int64
}

func (e event) sql() string {
	return fmt.Sprintf("INSERT INTO events (id, src, qty) VALUES (%d, '%s', %d)", e.id, e.src, e.qty)
}

// eventLog records every record submitted to one cluster and which were
// acked, so the table can be checked against it at the end.
type eventLog struct {
	mu     sync.Mutex
	rng    *rand.Rand
	nextID int64
	acked  map[int64]event
}

func newEventLog(rng *rand.Rand) *eventLog {
	return &eventLog{rng: rng, acked: map[int64]event{}}
}

// next makes the next record; its contents come from the seeded generator.
func (l *eventLog) next() event {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.nextID++
	return event{id: l.nextID, src: fmt.Sprintf("sensor-%03d", l.rng.Intn(1000)), qty: l.rng.Int63n(1_000_000)}
}

func (l *eventLog) ack(e event) {
	l.mu.Lock()
	l.acked[e.id] = e
	l.mu.Unlock()
}

// submitFn streams one record through the pipeline and waits for its ack.
type submitFn func(ingest.Record) (ingest.Ack, error)

// newPipeline opens the cluster's ingest pipeline with the default group
// commit size. auth, when set, replaces the monitor as the policy gate (the
// traced run wraps the monitor to time each authorization).
func newPipeline(c *ironsafe.Cluster, auth ingest.Authorizer) (*ingest.Pipeline, error) {
	return c.IngestPipeline(ingest.Config{QueueMax: queueMax, Authorizer: auth})
}

// submitOne streams one record and checks its ack; it reports whether the
// record was acked.
func submitOne(submit submitFn, log *eventLog, e event, t *tally) bool {
	t.attempt(1)
	ack, err := submit(ingest.Record{Client: benchClient, SQL: e.sql()})
	if err != nil {
		t.fail(false, "event %d: %v", e.id, err)
		return false
	}
	if ack.Affected != 1 {
		t.fail(true, "event %d acked with %d affected rows", e.id, ack.Affected)
		return false
	}
	log.ack(e)
	return true
}

// warmIngest streams a few records one at a time before anything is timed.
func warmIngest(submit submitFn, log *eventLog, t *tally) {
	for i := 0; i < 20; i++ {
		submitOne(submit, log, log.next(), t)
	}
}

// The ingest probe runs for probeLength of the measured window: an
// open-loop stream at probeRate for probeOpenShare of it, then saturation
// by closed-loop writers, whose samples the gated ingest metrics come from.
// At a 25 s window that is 4.5 s of 1,000 records/s, then 10.5 s of
// saturation.
const (
	probeRate      = 1000 // records/s
	probeOpenShare = 0.3
	probeLength    = 0.6
)

// openLoop is what the open-loop stream observed.
type openLoop struct {
	records, acked int
	// p50 and p99 are ack latencies from each record's due time, over the
	// acked records.
	p50, p99 time.Duration
	// drain is how long after the last record's due time the last ack
	// arrived: it grows with the backlog.
	drain  time.Duration
	lagsMS []float64 // how late the generator issued each record
}

// saturation is the closed-loop phase: writers submit their next record as
// soon as the last is acked, so the pipeline runs at capacity and no
// backlog can grow. The phase is cut into segments of satSegment; the
// throughput and p50 are medians over the segments, so a burst of load
// from outside the benchmark moves a few segments, not the result.
type saturation struct {
	writers  int
	acked    int
	segments int
	elapsed  time.Duration
	perSec   float64       // median of the segments' ack throughputs
	p50      time.Duration // median of the segments' ack p50s
	p99      time.Duration // over every ack
}

// satSegment is the length of one saturation segment.
const satSegment = 500 * time.Millisecond

// ingestRun is what one plan observed.
type ingestRun struct {
	open openLoop
	sat  saturation
}

// saturationWriters keeps two full group commits' worth of records in
// flight.
const saturationWriters = 32

// runIngest runs the probe over its share of window.
func runIngest(submit submitFn, log *eventLog, window time.Duration, rng *rand.Rand, t *tally) *ingestRun {
	span := time.Duration(float64(window) * probeLength)
	open := time.Duration(float64(span) * probeOpenShare)
	return &ingestRun{
		open: openLoopStream(submit, log, probeRate, open, rng, t),
		sat:  closedLoop(submit, log, saturationWriters, span-open, t),
	}
}

// openLoopStream offers records at rate for d: arrivals are a seeded
// Poisson process, each pending Submit waits on its own goroutine, and
// latency runs from a record's due time, so a stall also charges the
// records queued behind it.
func openLoopStream(submit submitFn, log *eventLog, rate float64, d time.Duration, rng *rand.Rand, t *tally) openLoop {
	n := max(1, int(rate*d.Seconds()))
	events := make([]event, n)
	gaps := make([]time.Duration, n)
	for i := range events {
		events[i] = log.next()
		gaps[i] = time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
	}
	lat := make([]time.Duration, n)
	ends := make([]time.Time, n)
	ok := make([]bool, n)
	out := openLoop{records: n}
	var wg sync.WaitGroup
	due := now()
	for i := range events {
		due = due.Add(gaps[i])
		if w := due.Sub(now()); w > 0 {
			time.Sleep(w) //ironsafe:allow wallclock -- the open-loop generator waits for each record's due time
		}
		out.lagsMS = append(out.lagsMS, ms(now().Sub(due)))
		wg.Add(1)
		go func(i int, due time.Time) {
			defer wg.Done()
			ok[i] = submitOne(submit, log, events[i], t)
			ends[i] = now()
			lat[i] = ends[i].Sub(due)
		}(i, due)
	}
	wg.Wait()

	var acked []float64
	last := due
	for i, d := range lat {
		if ends[i].After(last) {
			last = ends[i]
		}
		if ok[i] {
			acked = append(acked, float64(d))
		}
	}
	out.acked = len(acked)
	out.p50 = time.Duration(quantile(acked, 0.50))
	out.p99 = time.Duration(quantile(acked, 0.99))
	out.drain = last.Sub(due)
	return out
}

// closedLoop runs writers closed-loop submitters for d. Their ack
// throughput is the highest rate the pipeline sustains without a backlog.
func closedLoop(submit submitFn, log *eventLog, writers int, d time.Duration, t *tally) saturation {
	segments := max(1, int(d/satSegment))
	start := now()
	end := start.Add(time.Duration(segments) * satSegment)
	// lats[w][s] are writer w's ack latencies, in ns, of acks that arrived
	// in segment s.
	lats := make([][][]float64, writers)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		lats[w] = make([][]float64, segments)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for now().Before(end) {
				t0 := now()
				if !submitOne(submit, log, log.next(), t) {
					continue
				}
				t1 := now()
				if s := int(t1.Sub(start) / satSegment); s < segments {
					lats[w][s] = append(lats[w][s], float64(t1.Sub(t0)))
				}
			}
		}(w)
	}
	wg.Wait()
	out := saturation{writers: writers, segments: segments, elapsed: now().Sub(start)}
	var all, rates, p50s []float64
	for s := 0; s < segments; s++ {
		var seg []float64
		for w := range lats {
			seg = append(seg, lats[w][s]...)
		}
		all = append(all, seg...)
		rates = append(rates, float64(len(seg))/satSegment.Seconds())
		p50s = append(p50s, median(seg))
	}
	out.acked = len(all)
	out.perSec = median(rates)
	out.p50 = time.Duration(median(p50s))
	out.p99 = time.Duration(quantile(all, 0.99))
	return out
}

// verifyEvents reads the events table back through the policy-checked
// query path: every acked record must be there exactly as written, and no
// record may be there that was never acked.
func verifyEvents(c *ironsafe.Cluster, log *eventLog, t *tally) error {
	qr, err := c.NewSession(benchClient).Query("select id, src, qty from events")
	if err != nil {
		return fmt.Errorf("reading back events: %w", err)
	}
	seen := map[int64]bool{}
	for _, row := range qr.Result.Rows {
		e := event{id: row[0].AsInt(), src: row[1].AsString(), qty: row[2].AsInt()}
		want, acked := log.acked[e.id]
		switch {
		case seen[e.id]:
			t.fail(true, "event %d is stored twice", e.id)
		case !acked:
			t.fail(true, "event %d is stored but was never acked", e.id)
		case want != e:
			t.fail(true, "event %d is stored as %+v but was acked as %+v", e.id, e, want)
		}
		seen[e.id] = true
	}
	ids := make([]int64, 0, len(log.acked))
	for id := range log.acked {
		if !seen[id] {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		t.fail(true, "acked event %d is lost", id)
	}
	return nil
}
