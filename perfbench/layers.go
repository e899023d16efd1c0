package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"time"

	"pisd/internal/frontend"
)

// setCommonLayers sets every per-layer metric to the value the registries
// give, or 0 for a layer the workload bypasses; the workload's own layer
// accounting then overwrites the rest.
func setCommonLayers(res *result, d delta, shards int, discoveries, updates int) {
	for _, n := range perLayer {
		if _, ok := res.values[n]; !ok {
			res.set(n, 0)
		}
	}
	hits, misses := d.counter("frontend.cache_hits"), d.counter("frontend.cache_misses")
	prf := d.counter("crypt.prf_pos_ops") + d.counter("crypt.prf_mask_ops") + d.counter("crypt.prf_mac_ops")
	ops := float64(discoveries + updates)
	batch := d.def.Histograms["frontend.coalesce_batch"]
	res.set("frontend.trapdoor_us", d.meanUS("frontend.trapdoor"))
	res.set("frontend.decrypt_us", d.meanUS("frontend.decrypt"))
	res.set("frontend.rank_us", d.meanUS("frontend.rank"))
	res.set("frontend.cache_hit_ratio", ratio(hits, hits+misses))
	res.set("frontend.cache_invalidations_per_update", ratio(d.counter("frontend.cache_invalidations"), float64(updates)))
	res.set("frontend.coalesce_batch_mean", ratio(float64(batch.Sum), float64(batch.Count)))
	res.set("shard.failed_legs", d.failedLegs(shards))
	queries := d.cloudCounter("cloud.queries")
	res.set("cloud.secrec_us", d.cloudMeanUS("cloud.secrec"))
	res.set("cloud.buckets_per_query", ratio(d.cloudCounter("cloud.buckets_unmasked"), queries))
	res.set("cloud.profiles_per_query", ratio(d.cloudCounter("cloud.profiles_served"), queries/float64(shards)))
	res.set("crypt.prf_ops_per_query", ratio(prf, ops))
	eval := d.subs.Histograms["subs.eval"]
	res.set("subs.eval_us", ratio(float64(eval.Sum), float64(eval.Count))/1e3)
	res.set("subs.notifications_per_update", ratio(float64(d.subs.Counters["subs.notifications"]), float64(updates)))
	res.set("runtime.alloc_bytes_per_op", ratio(float64(d.alloc), ops))
}

// staticLayers computes the traced phase's budget of a static workload.
// Each flush span is attributed to the requests whose trapdoors it
// carried (matched by fingerprint and time containment), each leg span to
// its flush; a child that lies outside its parent is a nesting violation.
func staticLayers(res *result, p *phaseResult, tr *tracer, fps map[uint64][]int32, st *staticStack) {
	d := p.delta
	completed := 0
	byQuery := make(map[int32][]int)
	for i, op := range p.ops {
		if !isRejected(op) {
			completed++
		}
		byQuery[op.q] = append(byQuery[op.q], i)
	}
	setCommonLayers(res, d, len(st.shards), completed, 0)
	res.set("frontend.admission_reject_share", ratio(d.counter("frontend.admission_rejected"), float64(len(p.ops))))

	violations := 0
	children := make([][]span, len(p.ops))
	flushes := make(map[int64]flushSpan, len(tr.flushes))
	var flushDur []time.Duration
	var flushSum time.Duration
	for _, f := range tr.flushes {
		flushes[f.id] = f
		flushDur = append(flushDur, f.dur())
		flushSum += f.dur()
		for _, fp := range f.fps {
			if i := attribute(p.ops, children, fps[fp], byQuery, f.span); i >= 0 {
				children[i] = append(children[i], f.span)
			} else {
				violations++
			}
		}
	}
	legs := make(map[int64][]span)
	var legDur []time.Duration
	var legSum time.Duration
	for _, l := range tr.legs {
		f, ok := flushes[l.flush]
		if !ok || !f.contains(l.span) {
			violations++
			continue
		}
		legs[l.flush] = append(legs[l.flush], l.span)
		legDur = append(legDur, l.dur())
		legSum += l.dur()
	}
	var skew time.Duration
	skewed := 0
	for _, ls := range legs {
		if len(ls) < 2 {
			continue
		}
		lo, hi := ls[0].dur(), ls[0].dur()
		for _, l := range ls[1:] {
			lo, hi = min(lo, l.dur()), max(hi, l.dur())
		}
		skew += hi - lo
		skewed++
	}
	var self time.Duration
	ok := 0
	for i, op := range p.ops {
		if op.err != nil {
			continue
		}
		self += op.end - op.start - covered(children[i])
		ok++
	}
	sortDurations(flushDur)
	sortDurations(legDur)
	meanFlushUS := ratio(us(flushSum), float64(len(flushDur)))
	meanLegUS := ratio(us(legSum), float64(len(legDur)))
	res.set("frontend.serving_self_us", ratio(us(self), float64(ok)))
	if len(flushDur) > 0 {
		res.set("frontend.coalesce_wait_us", d.meanUS("frontend.fanout")-meanFlushUS)
	}
	res.set("shard.flush_us_p50", us(quantile(flushDur, 0.50)))
	res.set("shard.flush_us_p99", us(quantile(flushDur, 0.99)))
	res.set("shard.leg_us_p50", us(quantile(legDur, 0.50)))
	res.set("shard.leg_us_p99", us(quantile(legDur, 0.99)))
	res.set("shard.leg_skew_us", ratio(us(skew), float64(skewed)))
	res.set("transport.bytes_per_query", ratio(float64(d.bytes), float64(completed)))
	if len(legDur) > 0 {
		res.set("transport.wire_us", meanLegUS-d.cloudMeanUS("cloud.secrec_batch"))
	}
	if len(p.lags) > 0 {
		lags := append([]time.Duration(nil), p.lags...)
		sortDurations(lags)
		res.set("loadgen.lag_ms", ms(quantile(lags, 0.99)))
	}
	res.set("trace.requests", float64(len(p.ops)))
	res.set("trace.nesting_violations", float64(violations))
	if violations > 0 {
		res.fail("%d spans lie outside their parent", violations)
	}
}

// attribute picks the request a flushed trapdoor belongs to: one issued
// for a query with that fingerprint whose span contains the flush,
// preferring a request that has no flush yet. It returns -1 if none.
func attribute(ops []opRec, children [][]span, queries []int32, byQuery map[int32][]int, f span) int {
	found := -1
	for _, q := range queries {
		for _, i := range byQuery[q] {
			if !ops[i].span().contains(f) {
				continue
			}
			if len(children[i]) == 0 {
				return i
			}
			if found < 0 {
				found = i
			}
		}
	}
	return found
}

// churnLayers computes the traced phase's budget of dynamic-churn. Writer
// DynNode spans belong to the update whose span contains them, all others
// to the search in flight; notifications must be emitted inside their
// update.
func churnLayers(res *result, c *churn, p churnPhase, tr *tracer) {
	ups := c.ops[p.ops[0]:p.ops[1]]
	ss := c.searches[p.searches[0]:p.searches[1]]
	setCommonLayers(res, p.delta, len(c.st.shards), len(ss), len(ups))

	upSpans := make([]span, len(ups))
	for i, u := range ups {
		upSpans[i] = u.span()
	}
	searchSpans := make([]span, len(ss))
	for i, s := range ss {
		searchSpans[i] = s.span()
	}
	violations := 0
	upChildren := make([][]span, len(ups))
	searchChildren := make([][]span, len(ss))
	var fetches int
	var fetchSum, storeSum, profSum time.Duration
	var stores, profs int
	var wireBytes int64
	for _, ds := range tr.dyn {
		parents, children := searchSpans, searchChildren
		if ds.writer {
			parents, children = upSpans, upChildren
		}
		i := findContaining(parents, ds.span)
		if i < 0 {
			violations++
			continue
		}
		children[i] = append(children[i], ds.span)
		switch {
		case ds.writer && ds.kind == dynFetch:
			fetches++
			fetchSum += ds.dur()
		case ds.writer && ds.kind == dynStore:
			stores++
			storeSum += ds.dur()
		case ds.kind == dynFetchProfiles:
			profs++
			profSum += ds.dur()
		}
		if ds.writer {
			wireBytes += ds.bytes
		}
	}
	for _, at := range tr.emits {
		if findContaining(upSpans, span{at, at}) < 0 {
			violations++
		}
	}
	var searchSelf, upSelf time.Duration
	okS, okU := 0, 0
	for i, s := range ss {
		if s.err == nil {
			searchSelf += s.end - s.start - covered(searchChildren[i])
			okS++
		}
	}
	for i, u := range ups {
		if u.err == nil {
			upSelf += u.end - u.start - covered(upChildren[i]) - time.Duration(u.evalNs)
			okU++
		}
	}
	res.set("frontend.dyn_search_self_us", ratio(us(searchSelf), float64(okS)))
	res.set("frontend.dyn_update_self_us", ratio(us(upSelf), float64(okU)))
	res.set("transport.bytes_per_update", ratio(float64(wireBytes), float64(len(ups))))
	res.set("core.rounds_per_update", ratio(float64(fetches), float64(len(ups))))
	res.set("core.fetch_us", ratio(us(fetchSum), float64(fetches)))
	res.set("core.store_us", ratio(us(storeSum), float64(stores)))
	res.set("core.fetch_profiles_us", ratio(us(profSum), float64(profs)))
	res.set("trace.requests", float64(len(ss)+len(ups)))
	res.set("trace.nesting_violations", float64(violations))
	if violations > 0 {
		res.fail("%d spans lie outside their parent", violations)
	}
}

// encodeMatches renders an answer byte for byte: identifiers and the
// IEEE-754 bits of each distance.
func encodeMatches(ms []frontend.Match) []byte {
	var b bytes.Buffer
	for _, m := range ms {
		binary.Write(&b, binary.LittleEndian, m.ID)
		binary.Write(&b, binary.LittleEndian, math.Float64bits(m.Distance))
	}
	return b.Bytes()
}

// staticPrefix runs a fixed serial prefix of fresh queries twice, on two
// fresh serving paths: shims disabled, then enabled. The answers must be
// byte-identical, and the disabled pass reports the per-query counts that
// must repeat exactly for a seed.
func staticPrefix(st *staticStack, in *inputs, res *result) error {
	qs := in.freshQueries(in.sz.prefix, 6)
	pass := func() ([][]byte, delta, error) {
		s, err := st.newServing()
		if err != nil {
			return nil, delta{}, err
		}
		s0 := takeSnap(st.shards, nil)
		out := make([][]byte, len(qs))
		for i, q := range qs {
			ms, partial, err := s.Discover(context.Background(), q.profile, topK, 0)
			if err == nil && partial {
				err = fmt.Errorf("partial answer")
			}
			if err != nil {
				return nil, delta{}, fmt.Errorf("prefix query %d: %w", i, err)
			}
			out[i] = encodeMatches(ms)
		}
		return out, takeSnap(st.shards, nil).since(s0), nil
	}
	off, d, err := pass()
	if err != nil {
		return err
	}
	st.tr.on.Store(true)
	on, _, err := pass()
	st.tr.on.Store(false)
	st.tr.reset()
	if err != nil {
		return err
	}
	for i := range off {
		if !bytes.Equal(off[i], on[i]) {
			res.fail("prefix query %d: answer differs with the shims enabled", i)
		}
	}
	queries := d.cloudCounter("cloud.queries")
	res.set("prefix.buckets_per_query", ratio(d.cloudCounter("cloud.buckets_unmasked"), queries))
	res.set("prefix.profiles_per_query", float64(d.cloudCounter("cloud.profiles_served"))/float64(len(qs)))
	res.set("prefix.bytes_per_query", float64(d.bytes)/float64(len(qs)))
	return nil
}

// churnPrefix checks shim transparency on dynamic searches — a fixed
// serial prefix of hot-set searches on two fresh serving paths over the
// same shards, plain nodes then enabled shims, with byte-identical answers
// required — and then runs a serial writer prefix whose fetch rounds per
// update must repeat exactly for a seed.
func churnPrefix(c *churn, n int, res *result) error {
	st, tr := c.st, c.tr
	plain := make([]frontend.DynNode, len(st.shards))
	shimmed := make([]frontend.DynNode, len(st.shards))
	for i, s := range st.shards {
		plain[i] = s.remote
		shimmed[i] = dynShim{Remote: s.remote, shard: i, tr: tr}
	}
	pass := func(nodes []frontend.DynNode) ([][]byte, error) {
		s, err := st.f.NewDynServing(st.parts, nodes, nil, frontend.DefaultServingConfig())
		if err != nil {
			return nil, err
		}
		out := make([][]byte, n)
		for i := 0; i < n; i++ {
			q := c.targets[i%len(c.targets)]
			ms, partial, err := s.Search(q.profile, topK, q.exclude)
			if err == nil && partial {
				err = fmt.Errorf("partial answer")
			}
			if err != nil {
				return nil, fmt.Errorf("prefix search %d: %w", i, err)
			}
			out[i] = encodeMatches(ms)
		}
		return out, nil
	}
	off, err := pass(plain)
	if err != nil {
		return err
	}
	tr.on.Store(true)
	on, err := pass(shimmed)
	tr.on.Store(false)
	tr.reset()
	if err != nil {
		return err
	}
	for i := range off {
		if !bytes.Equal(off[i], on[i]) {
			res.fail("prefix search %d: answer differs with the shims enabled", i)
		}
	}

	rounds := func() int {
		total := 0
		for _, p := range st.parts {
			total += p.Client.Stats().Rounds
		}
		return total
	}
	r0 := rounds()
	for i := 0; i < n; i++ {
		if !c.step() {
			return fmt.Errorf("fresh users exhausted in the writer prefix")
		}
	}
	// Every fetch round of an insert or delete is followed by one store.
	res.set("prefix.rounds_per_update", float64(rounds()-r0)/2/float64(n))
	return nil
}
