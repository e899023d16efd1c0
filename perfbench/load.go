package main

import (
	"errors"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"pisd/internal/frontend"
)

// opRec is one discovery or search as the client saw it. Times are
// relative to the run's epoch; an open-loop request starts at its due time.
type opRec struct {
	q          int32 // index into the workload's query list
	start, end time.Duration
	matches    []frontend.Match
	partial    bool
	err        error
}

func (o opRec) span() span { return span{o.start, o.end} }

// discoverFunc runs query q through the stack.
type discoverFunc func(q int) ([]frontend.Match, bool, error)

// closedLoop runs `clients` lockstep clients for the given duration: each
// sends its next request only after the previous one returned. pick
// chooses a client's next query; false means the supply of queries ran out
// before the deadline, which fails the run. It returns every request and
// the measured wall time.
func closedLoop(clients int, seconds float64, epoch time.Time, pick func(client int) (int, bool), do discoverFunc) ([]opRec, time.Duration, error) {
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	per := make([][]opRec, clients)
	var ranOut atomic.Bool
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				q, ok := pick(c)
				if !ok {
					ranOut.Store(true)
					return
				}
				t0 := time.Now()
				matches, partial, err := do(q)
				t1 := time.Now()
				per[c] = append(per[c], opRec{q: int32(q), start: t0.Sub(epoch), end: t1.Sub(epoch), matches: matches, partial: partial, err: err})
			}
		}(c)
	}
	wg.Wait()
	if ranOut.Load() {
		return nil, 0, errSupply
	}
	var ops []opRec
	last := start
	for _, recs := range per {
		ops = append(ops, recs...)
		if n := len(recs); n > 0 {
			if e := epoch.Add(recs[n-1].end); e.After(last) {
				last = e
			}
		}
	}
	return ops, last.Sub(start), nil
}

// sharedSequence hands out queries 0, 1, 2, ... across clients, so no
// query is sent twice.
func sharedSequence(n int) func(int) (int, bool) {
	var next atomic.Int64
	return func(int) (int, bool) {
		i := int(next.Add(1) - 1)
		return i, i < n
	}
}

// zipfPicker draws each client's queries Zipf(s=1.1) over n queries from
// its own seeded stream.
func zipfPicker(seed int64, clients, n int) func(int) (int, bool) {
	zs := make([]*rand.Zipf, clients)
	for c := range zs {
		zs[c] = rand.NewZipf(rand.New(rand.NewSource(seed+int64(c))), 1.1, 1, uint64(n-1))
	}
	return func(c int) (int, bool) { return int(zs[c].Uint64()), true }
}

// openLoop issues Poisson arrivals at rate per second for the given
// duration, each on its own goroutine, independent of completions. Arrival
// i runs query i, and its latency counts from its due time, so a stalled
// stack is charged for the wait it imposes on later arrivals. It returns
// every arrival, how late the generator issued each, and the wall time to
// the last completion. Running out of the n queries before the deadline
// fails the run.
func openLoop(rate, seconds float64, seed int64, n int, epoch time.Time, do discoverFunc) ([]opRec, []time.Duration, time.Duration, error) {
	rng := rand.New(rand.NewSource(seed))
	total := time.Duration(seconds * float64(time.Second))
	recs := make([]opRec, n)
	var lags []time.Duration
	start := time.Now()
	var due time.Duration
	var wg sync.WaitGroup
	issued := 0
	for ; issued < n; issued++ {
		due += time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
		if due >= total {
			break
		}
		if wait := time.Until(start.Add(due)); wait > 0 {
			time.Sleep(wait)
		}
		lags = append(lags, time.Since(start.Add(due)))
		recs[issued] = opRec{q: int32(issued), start: start.Add(due).Sub(epoch)}
		wg.Add(1)
		go func(r *opRec) {
			defer wg.Done()
			r.matches, r.partial, r.err = do(int(r.q))
			r.end = time.Since(epoch)
		}(&recs[issued])
	}
	wg.Wait()
	if issued == n {
		return nil, nil, 0, errSupply
	}
	recs = recs[:issued]
	last := start
	for _, r := range recs {
		if e := epoch.Add(r.end); e.After(last) {
			last = e
		}
	}
	return recs, lags, last.Sub(start), nil
}

// latencies returns the sorted durations of the requests ok selects.
func latencies(ops []opRec, ok func(opRec) bool) []time.Duration {
	var d []time.Duration
	for _, o := range ops {
		if ok(o) {
			d = append(d, o.end-o.start)
		}
	}
	sortDurations(d)
	return d
}

// supply is how many fresh targets a phase of the given length can use at
// up to perSecond: six standard deviations above the mean of a Poisson
// count at that rate, so the open loop's arrivals do not run out.
func supply(perSecond, seconds float64) int {
	mean := perSecond * seconds
	return int(math.Ceil(mean + 6*math.Sqrt(mean)))
}

// errSupply fails a run whose clients used up their fresh targets before
// the measured time ended.
var errSupply = errors.New("the supply of fresh targets ran out before the deadline")
