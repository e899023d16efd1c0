package main

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"time"

	"pisd/internal/baseline"
	"pisd/internal/frontend"
	"pisd/internal/vec"
)

// staticLoad is how a static workload offers its queries.
type staticLoad int

const (
	loadCold     staticLoad = iota // 2 lockstep clients, every target fresh
	loadHot                        // 2 lockstep clients, Zipf over an indexed hot set
	loadOverload                   // open-loop Poisson arrivals of fresh targets
)

// closedClients is the client count of every closed-loop workload: the
// benchmark host has 2 vCPUs, and more clients would only queue.
const closedClients = 2

// phaseResult is one measured phase of a workload.
type phaseResult struct {
	ops     []opRec
	updates []updRec // dynamic-churn writer
	lags    []time.Duration
	elapsed time.Duration
	delta   delta
	bad     map[int]bool // indices into ops that failed the checks
}

func runStatic(o options, sz sizes, load staticLoad) (*result, error) {
	in, err := genInputs(sz, o.seed)
	if err != nil {
		return nil, err
	}
	// The traced run's two phases send the same targets, each through a
	// serving path with an empty cache, so no target repeats within one.
	var qs []query
	switch load {
	case loadCold:
		qs = in.freshQueries(supply(sz.maxQPS, o.seconds), 1)
	case loadHot:
		qs = in.hotUsers(sz.hotSet, 2)
	case loadOverload:
		qs = in.freshQueries(supply(sz.rate, o.seconds), 3)
	}
	warm := in.freshQueries(64, 4)
	verify := in.freshQueries(sz.verify, 5)

	res := newResult()
	heap0 := liveHeapMB()
	var tr *tracer
	setups := sz.setups
	if o.trace {
		tr = newTracer()
		setups = 1
	}
	st, setupS, err := setUp(setups, func() (*staticStack, error) { return buildStatic(in, tr) })
	if err != nil {
		return nil, err
	}
	defer st.close()
	params, err := st.f.IndexParams()
	if err != nil {
		return nil, err
	}
	epoch := time.Now()
	if tr != nil {
		epoch = tr.epoch
	}
	before := takeSnap(st.shards, nil)

	ctx := context.Background()
	discover := func(s *frontend.Serving, qs []query) discoverFunc {
		return func(i int) ([]frontend.Match, bool, error) {
			return s.Discover(ctx, qs[i].profile, topK, qs[i].exclude)
		}
	}
	// Warm the connections (and, on discover-hot, the result cache).
	warmSet := warm
	if load == loadHot {
		warmSet = qs
	}
	for i := range warmSet {
		if _, _, err := st.serving.Discover(ctx, warmSet[i].profile, topK, warmSet[i].exclude); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}

	if tr != nil {
		if err := staticPrefix(st, in, res); err != nil {
			return nil, err
		}
	}

	measure := func(s *frontend.Serving) (*phaseResult, error) {
		p := &phaseResult{}
		s0 := takeSnap(st.shards, nil)
		var err error
		switch load {
		case loadCold:
			p.ops, p.elapsed, err = closedLoop(closedClients, o.seconds, epoch, sharedSequence(len(qs)), discover(s, qs))
		case loadHot:
			p.ops, p.elapsed, err = closedLoop(closedClients, o.seconds, epoch, zipfPicker(o.seed*7919, closedClients, len(qs)), discover(s, qs))
		case loadOverload:
			p.ops, p.lags, p.elapsed, err = openLoop(sz.rate, o.seconds, o.seed*7919, len(qs), epoch, discover(s, qs))
		}
		p.delta = takeSnap(st.shards, nil).since(s0)
		return p, err
	}

	var measured, untraced *phaseResult
	if tr == nil {
		if measured, err = measure(st.serving); err != nil {
			return nil, err
		}
	} else {
		// Phase A runs with the shims disabled, phase B with them enabled.
		// Each phase gets a fresh serving path, so both start from the
		// same cache state and phase A's full cache is collected before
		// phase B starts.
		fresh := func() (*frontend.Serving, error) {
			s, err := st.newServing()
			if err != nil || load != loadHot {
				return s, err
			}
			for i := range qs {
				if _, _, err := s.Discover(ctx, qs[i].profile, topK, qs[i].exclude); err != nil {
					return nil, fmt.Errorf("warm-up: %w", err)
				}
			}
			return s, nil
		}
		s, err := fresh()
		if err != nil {
			return nil, err
		}
		if untraced, err = measure(s); err != nil {
			return nil, err
		}
		fps := make(map[uint64][]int32)
		for i, q := range qs {
			td, err := st.f.Trapdoor(q.profile)
			if err != nil {
				return nil, err
			}
			fp := fingerprint(td)
			fps[fp] = append(fps[fp], int32(i))
		}
		if s, err = fresh(); err != nil {
			return nil, err
		}
		runtime.GC()
		tr.reset()
		tr.on.Store(true)
		measured, err = measure(s)
		tr.on.Store(false)
		if err != nil {
			return nil, err
		}
		staticLayers(res, measured, tr, fps, st)
	}

	total := takeSnap(st.shards, nil).since(before)
	if err := checkInvariants(total, params.BucketsPerQuery(), len(st.shards), load != loadOverload); err != nil {
		return nil, err
	}

	// Off the clock: every answer against the slot-exact plaintext oracle.
	oracle, err := st.f.BuildOracle(in.uploads)
	if err != nil {
		return nil, fmt.Errorf("build oracle: %w", err)
	}
	want := make(map[int32][]frontend.Match)
	for _, p := range []*phaseResult{untraced, measured} {
		if p != nil {
			checkStatic(res, p, qs, oracle, want)
		}
	}

	res.attempted = len(measured.ops)
	res.failed = len(measured.bad)
	if untraced != nil {
		res.attempted += len(untraced.ops)
		res.failed += len(untraced.bad)
	}
	if tr != nil {
		overhead(res, untraced, measured)
		return res, nil
	}
	setEndToEnd(res, measured)
	res.set("setup_s", setupS)
	recall, err := staticRecall(res, st, in, verify, oracle)
	if err != nil {
		return nil, err
	}
	res.set("recall_at_10", recall)
	// The benchmark's own records and oracle are released first, so the
	// heap growth counts the deployment and its caches, whatever the
	// number of requests recorded.
	measured, oracle, want = nil, nil, nil
	res.set("heap_mb", liveHeapMB()-heap0)
	// The inputs were live when heap0 was taken; keeping them live up to
	// here leaves them out of the growth, whatever their size.
	runtime.KeepAlive(in)
	runtime.KeepAlive(qs)
	runtime.KeepAlive(warm)
	runtime.KeepAlive(verify)
	return res, nil
}

// checkStatic compares every answered request with the oracle's answer for
// its query. Errors other than admission rejections, partial answers and
// mismatches mark the request bad.
func checkStatic(res *result, p *phaseResult, qs []query, oracle *frontend.Oracle, want map[int32][]frontend.Match) {
	p.bad = make(map[int]bool)
	for i, op := range p.ops {
		switch {
		case errors.Is(op.err, frontend.ErrOverloaded):
			continue
		case op.err != nil:
			p.bad[i] = true
			res.fail("query %d: %v", op.q, op.err)
			continue
		case op.partial:
			p.bad[i] = true
			res.fail("query %d: partial answer", op.q)
			continue
		}
		w, ok := want[op.q]
		if !ok {
			q := qs[op.q]
			w = oracle.Discover(q.profile, topK, q.exclude)
			want[op.q] = w
		}
		if err := frontend.EqualMatches(op.matches, w); err != nil {
			p.bad[i] = true
			res.fail("query %d: oracle mismatch: %v", op.q, err)
		}
	}
}

// staticRecall runs the verification queries after the measured phase,
// through a serving path of their own so the measured one's cache is left
// as the workload filled it, and returns their mean recall@10 against
// brute force over the whole population. Each answer is also
// oracle-checked.
func staticRecall(res *result, st *staticStack, in *inputs, verify []query, oracle *frontend.Oracle) (float64, error) {
	s, err := st.newServing()
	if err != nil {
		return 0, err
	}
	var sum float64
	for i, q := range verify {
		got, partial, err := s.Discover(context.Background(), q.profile, topK, 0)
		if err != nil {
			return 0, fmt.Errorf("verification query %d: %w", i, err)
		}
		if partial {
			res.fail("verification query %d: partial answer", i)
		}
		if err := frontend.EqualMatches(got, oracle.Discover(q.profile, topK, 0)); err != nil {
			res.fail("verification query %d: oracle mismatch: %v", i, err)
		}
		truth := baseline.BruteForceTopK(in.ds.Profiles, q.profile, topK)
		for j := range truth {
			truth[j].ID++ // population index → user id
		}
		sum += baseline.RecallAtK(truth, scored(got))
	}
	return sum / float64(len(verify)), nil
}

func scored(ms []frontend.Match) []vec.Scored {
	out := make([]vec.Scored, len(ms))
	for i, m := range ms {
		out[i] = vec.Scored{ID: m.ID, Score: m.Distance}
	}
	return out
}

// isRejected reports an admission-gate rejection.
func isRejected(o opRec) bool { return errors.Is(o.err, frontend.ErrOverloaded) }

// e2e holds one phase's end-to-end figures.
type e2e struct {
	qps, p50, p99, goodput float64
	errorRate              float64
	cpuMS                  float64 // process CPU time per completed operation
	count                  int
}

func phaseE2E(p *phaseResult) e2e {
	secs := p.elapsed.Seconds()
	completed, good := 0, 0
	for i, op := range p.ops {
		if isRejected(op) {
			continue
		}
		completed++
		if !p.bad[i] && op.err == nil {
			good++
		}
	}
	lat := latencies(p.ops, func(o opRec) bool { return o.err == nil })
	goodUpdates := 0
	for _, u := range p.updates {
		if !u.bad {
			goodUpdates++
		}
	}
	attempted := len(p.ops) + len(p.updates)
	return e2e{
		qps:       float64(completed) / secs,
		p50:       ms(quantile(lat, 0.50)),
		p99:       ms(quantile(lat, 0.99)),
		goodput:   float64(good+goodUpdates) / secs,
		errorRate: 1 - float64(good+goodUpdates)/float64(attempted),
		cpuMS:     ms(p.delta.cpu) / float64(completed+len(p.updates)),
		count:     len(lat),
	}
}

// setEndToEnd sets the untraced phase's end-to-end metrics.
func setEndToEnd(res *result, p *phaseResult) {
	e := phaseE2E(p)
	res.set("discover_qps", e.qps)
	res.set("discover_p50_ms", e.p50)
	res.set("discover_p99_ms", e.p99)
	res.set("goodput_qps", e.goodput)
	res.set("error_rate", e.errorRate)
	res.set("discover_count", float64(e.count))
	res.set("cpu_ms_per_op", e.cpuMS)
}

// overhead reports the traced phase's end-to-end figures minus the
// untraced phase's.
func overhead(res *result, untraced, traced *phaseResult) {
	a, b := phaseE2E(untraced), phaseE2E(traced)
	res.set("tracing.overhead_discover_qps", b.qps-a.qps)
	res.set("tracing.overhead_discover_p50_ms", b.p50-a.p50)
	res.set("tracing.overhead_discover_p99_ms", b.p99-a.p99)
	res.set("tracing.overhead_goodput_qps", b.goodput-a.goodput)
}
