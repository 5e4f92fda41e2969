package main

import (
	"math/rand" //ironsafe:allow cryptorand -- seeded query order; public benchmark inputs, never key material
	"runtime"
	"sort"
	"time"

	"ironsafe"
	"ironsafe/internal/sql/exec"
	"ironsafe/internal/tpch"
)

// pricedPasses is how many passes, from the first measured one, the
// simulated metrics are read from. The host enclave's page cache carries
// over from one query to the next, so a pass's simulated cost depends on
// the passes before it: a fixed count, not however many passes fit in the
// window, keeps every sim_* value a function of the seed alone.
const pricedPasses = 5

// queryFn runs one query and returns its rows and, on the untraced path,
// the stats Session.Query reported (nil when traced).
type queryFn func(sql string) (*exec.Result, *ironsafe.QueryStats, error)

// sessionQuery is the untraced path: Session.Query, as a client calls it.
func sessionQuery(c *ironsafe.Cluster) queryFn {
	s := c.NewSession(benchClient)
	return func(sql string) (*exec.Result, *ironsafe.QueryStats, error) {
		qr, err := s.Query(sql)
		if err != nil {
			return nil, nil, err
		}
		return qr.Result, &qr.Stats, nil
	}
}

// queryLog is what a closed loop of queries observed. Simulated times are
// QueryStats.Cost.Total() as Session.Query priced them, over the first
// pricedPasses passes; the benchmark never prices meters itself.
type queryLog struct {
	perWall map[int][]float64 // ms, by query number
	passQPS []float64         // per complete pass: queries per wall-clock second
	perSim  map[int][]float64 // simulated µs, by query number, priced passes
	passGeo []float64         // per priced pass: geomean of simulated µs
	passSum []float64         // per priced pass: sum of simulated µs
	stats   []ironsafe.QueryStats
	queries int     // correct queries
	allocMB float64 // heap allocated per query, in MiB, by everything running meanwhile
}

// runPasses is a closed loop with one client. Each pass runs every query
// once in a seeded order, and the loop ends after the first pass at whose
// end stop reports true, once at least minPasses passes are done. Every
// result is checked against ref.
func runPasses(fn queryFn, queries []int, ref reference, rng *rand.Rand, minPasses int, stop func() bool, t *tally) *queryLog {
	log := &queryLog{perWall: map[int][]float64{}, perSim: map[int][]float64{}}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for pass := 0; ; pass++ {
		order := append([]int(nil), queries...)
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		priced := pass < pricedPasses
		var sims []float64
		complete := true
		start := now()
		for _, q := range order {
			t.attempt(1)
			t0 := now()
			res, st, err := fn(tpch.Queries[q])
			wall := now().Sub(t0)
			if err != nil {
				complete = false
				t.fail(false, "q%d: %v", q, err)
				continue
			}
			if got := digestOf(res); got != ref[q] {
				complete = false
				t.fail(true, "q%d: %d rows that differ from the hons reference (%d rows)", q, got.rows, ref[q].rows)
				continue
			}
			log.queries++
			log.perWall[q] = append(log.perWall[q], ms(wall))
			if st != nil && priced {
				sim := us(st.Cost.Total())
				sims = append(sims, sim)
				log.perSim[q] = append(log.perSim[q], sim)
				log.stats = append(log.stats, *st)
			}
		}
		if complete {
			log.passQPS = append(log.passQPS, float64(len(order))/now().Sub(start).Seconds())
		}
		if complete && len(sims) == len(order) {
			var sum float64
			for _, s := range sims {
				sum += s
			}
			log.passGeo = append(log.passGeo, geomean(sims))
			log.passSum = append(log.passSum, sum)
		}
		if pass+1 >= minPasses && stop() {
			break
		}
	}
	runtime.ReadMemStats(&after)
	log.allocMB = ratio(float64(after.TotalAlloc-before.TotalAlloc), float64(log.queries)) / (1 << 20)
	return log
}

// medians is each query's median latency, in ms, fastest first.
func (l *queryLog) medians() []float64 {
	var out []float64
	for _, xs := range l.perWall {
		out = append(out, median(xs))
	}
	sort.Float64s(out)
	return out
}

// sumOfMedians adds up each query's median latency, so two phases that
// completed different numbers of passes compare like for like.
func (l *queryLog) sumOfMedians() float64 {
	var sum float64
	for _, m := range l.medians() {
		sum += m
	}
	return sum
}

// deadline returns a stop function that turns true once d has elapsed.
func deadline(d time.Duration) func() bool {
	end := now().Add(d)
	return func() bool { return !now().Before(end) }
}
