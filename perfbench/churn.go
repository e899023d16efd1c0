package main

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"pisd/internal/baseline"
	"pisd/internal/frontend"
	"pisd/internal/obs"
	"pisd/internal/subs"
	"pisd/internal/vec"
)

// updRec is one writer operation of dynamic-churn.
type updRec struct {
	insert     bool
	id         uint64
	start, end time.Duration
	err        error
	notes      [2]int // the notifications it emitted: notes[0] ≤ i < notes[1]
	evalNs     int64  // subscription evaluation time inside it (traced phase)
	bad        bool   // failed, or its notifications differ from the oracle's
}

func (u updRec) span() span { return span{u.start, u.end} }

func (u updRec) name() string {
	if u.insert {
		return "insert"
	}
	return "delete"
}

// searchRec is one reader search with the writer's progress around it: the
// state it read had at least lo and at most hi writer operations applied.
type searchRec struct {
	opRec
	lo, hi int
}

// churn is dynamic-churn's writer and reader over one deployment. The
// writer inserts fresh users and, once `window` of them are live, deletes
// the oldest before each insert; the reader searches for targets drawn
// Zipf from the hot set.
type churn struct {
	st      *dynStack
	tr      *tracer
	subsReg *obs.Registry
	window  int
	targets []query
	fresh   []query
	indexed [][]float64 // profile of indexed user id is indexed[id-1]
	epoch   time.Time

	// Writer state; only the writer goroutine touches it while a phase
	// runs.
	nextFresh int
	live      []uint64 // fresh users live, oldest first
	profiles  map[uint64][]float64
	ops       []updRec
	started   atomic.Int64
	done      atomic.Int64
	ranOut    bool // the writer used up the fresh supply before a deadline

	searches []searchRec // appended by the reader goroutine only

	// Each target's full candidate set (user → distance, self excluded)
	// from cache-free searches before the first writer operation and after
	// the last; see checkSearch. Nil when the run kicked an entry.
	first, last []map[uint64]float64
}

// churnPhase is one measured phase as index ranges into the churn logs.
type churnPhase struct {
	ops, searches [2]int
	elapsed       time.Duration
	delta         delta
}

// next is the writer's next operation: insert the next fresh user while
// fewer than window are live, else delete the oldest. ok is false when the
// fresh supply is used up.
func (c *churn) next() (insert bool, id uint64, profile []float64, ok bool) {
	if len(c.live) >= c.window {
		return false, c.live[0], c.profiles[c.live[0]], true
	}
	if c.nextFresh == len(c.fresh) {
		return true, 0, nil, false
	}
	return true, uint64(len(c.indexed) + c.nextFresh + 1), c.fresh[c.nextFresh].profile, true
}

// step runs one writer operation; it reports false when the fresh supply
// is used up.
func (c *churn) step() bool {
	insert, id, profile, ok := c.next()
	if !ok {
		return false
	}
	u := updRec{insert: insert, id: id}
	if insert {
		c.nextFresh++
		c.profiles[id] = profile
	}
	traced := c.tr != nil && c.tr.on.Load()
	var eval0 obs.HistSnap
	if traced {
		eval0 = c.subsReg.Snapshot().Histograms["subs.eval"]
	}
	c.started.Add(1)
	u.notes[0] = len(c.st.notes.notes)
	t0 := time.Now()
	if u.insert {
		u.err = c.st.serving.Insert(u.id, profile)
	} else {
		u.err = c.st.serving.Delete(u.id, profile)
	}
	t1 := time.Now()
	c.done.Add(1)
	u.notes[1] = len(c.st.notes.notes)
	u.start, u.end = t0.Sub(c.epoch), t1.Sub(c.epoch)
	if traced {
		u.evalNs = c.subsReg.Snapshot().Histograms["subs.eval"].Diff(eval0).Sum
	}
	switch {
	case u.insert && u.err == nil:
		c.live = append(c.live, u.id)
	case !u.insert:
		c.live = c.live[1:]
	}
	c.ops = append(c.ops, u)
	return true
}

// run measures one phase: the writer and one reader run concurrently for
// the given duration.
func (c *churn) run(seconds float64, pick func(int) (int, bool)) churnPhase {
	p := churnPhase{ops: [2]int{len(c.ops)}, searches: [2]int{len(c.searches)}}
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		if c.tr != nil {
			c.tr.writer.Store(goid())
		}
		for time.Now().Before(deadline) {
			if !c.step() {
				c.ranOut = true
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for time.Now().Before(deadline) {
			q, _ := pick(0)
			s := searchRec{lo: int(c.done.Load())}
			t0 := time.Now()
			s.matches, s.partial, s.err = c.st.serving.Search(c.targets[q].profile, topK, c.targets[q].exclude)
			t1 := time.Now()
			s.hi = int(c.started.Load())
			s.q, s.start, s.end = int32(q), t0.Sub(c.epoch), t1.Sub(c.epoch)
			c.searches = append(c.searches, s)
		}
	}()
	wg.Wait()
	p.ops[1], p.searches[1] = len(c.ops), len(c.searches)
	last := start
	if n := p.ops[1]; n > p.ops[0] {
		last = c.epoch.Add(c.ops[n-1].end)
	}
	if n := p.searches[1]; n > p.searches[0] && c.epoch.Add(c.searches[n-1].end).After(last) {
		last = c.epoch.Add(c.searches[n-1].end)
	}
	p.elapsed = last.Sub(start)
	return p
}

// checked converts a checked phase for the shared end-to-end accounting.
func (c *churn) checked(p churnPhase, badSearch map[int]bool) *phaseResult {
	r := &phaseResult{updates: c.ops[p.ops[0]:p.ops[1]], elapsed: p.elapsed, delta: p.delta, bad: make(map[int]bool)}
	for i := p.searches[0]; i < p.searches[1]; i++ {
		if badSearch[i] {
			r.bad[len(r.ops)] = true
		}
		r.ops = append(r.ops, c.searches[i].opRec)
	}
	return r
}

func runDynamicChurn(o options, sz sizes) (*result, error) {
	in, err := genInputs(sz, o.seed)
	if err != nil {
		return nil, err
	}
	phases := 1
	if o.trace {
		phases = 2
	}
	subscribers := in.hotUsers(sz.subs, 7)
	targets := in.hotUsers(sz.hotSet, 2)
	// Updates and searches serialize on the serving path's churn lock, so
	// the writer gets at most half of the stack's pace.
	// The traced prefix and the audit take up to sz.prefix fresh users each.
	fresh := in.freshQueries(supply(sz.maxQPS/2, o.seconds*float64(phases))+2*sz.prefix+sz.window, 8)
	verify := in.freshQueries(sz.verify, 5)

	subsReg := obs.NewRegistry()
	subs.SetRegistry(subsReg)
	res := newResult()
	heap0 := liveHeapMB()
	var tr *tracer
	setups := sz.setups
	if o.trace {
		tr = newTracer()
		setups = 1
	}
	st, setupS, err := setUp(setups, func() (*dynStack, error) { return buildDynamic(in, subscribers, tr) })
	if err != nil {
		return nil, err
	}
	defer st.close()
	epoch := time.Now()
	if tr != nil {
		epoch = tr.epoch
	}
	c := &churn{
		st: st, tr: tr, subsReg: subsReg, window: sz.window, targets: targets,
		fresh: fresh, indexed: in.ds.Profiles, epoch: epoch,
		profiles: make(map[uint64][]float64),
	}
	if c.first, err = c.scanCandidates(); err != nil {
		return nil, err
	}
	before := takeSnap(st.shards, subsReg)

	if tr != nil {
		if err := churnPrefix(c, sz.prefix, res); err != nil {
			return nil, err
		}
	}
	pick := zipfPicker(o.seed*7919, 1, len(targets))
	measure := func() churnPhase {
		s0 := takeSnap(st.shards, subsReg)
		p := c.run(o.seconds, pick)
		p.delta = takeSnap(st.shards, subsReg).since(s0)
		return p
	}
	// With --trace 1 the first phase runs with the shims disabled and the
	// second with them enabled.
	run := []churnPhase{measure()}
	if tr != nil {
		tr.reset()
		tr.on.Store(true)
		run = append(run, measure())
		tr.on.Store(false)
		churnLayers(res, c, run[1], tr)
	}
	if c.ranOut {
		return nil, errSupply
	}
	// A failed call or a partial answer on this closed loop is a shard
	// leg that failed: the run fails, as the invariant gate does for the
	// static workloads.
	if err := c.callError(); err != nil {
		return nil, err
	}
	total := takeSnap(st.shards, subsReg).since(before)
	if err := checkInvariants(total, 0, len(st.shards), true); err != nil {
		return nil, err
	}

	// Off the clock: the invalidation audit, searches against the op log
	// and the candidate scans, notifications (the audit's too) and final
	// standing results against the subscription oracle, then recall.
	if err := c.audit(res, sz.prefix); err != nil {
		return nil, err
	}
	if c.last, err = c.scanCandidates(); err != nil {
		return nil, err
	}
	// The scans settle a fresh user's bucket for its whole life only if no
	// cuckoo kick-away moved an entry; kicks switch that check off.
	kicks := 0
	for _, p := range st.parts {
		kicks += p.Client.Stats().Kicks
	}
	res.set("churn_kicks", float64(kicks))
	if kicks > 0 {
		c.first, c.last = nil, nil
	}
	badSearch := checkSearches(res, c)
	if err := checkSubscriptions(res, c, in); err != nil {
		return nil, err
	}
	phasesOut := make([]*phaseResult, len(run))
	for i, p := range run {
		phasesOut[i] = c.checked(p, badSearch)
		res.attempted += len(phasesOut[i].ops) + len(phasesOut[i].updates)
		res.failed += len(phasesOut[i].bad)
		for _, u := range phasesOut[i].updates {
			if u.bad {
				res.failed++
			}
		}
	}
	measured := phasesOut[len(phasesOut)-1]
	if tr != nil {
		overhead(res, phasesOut[0], measured)
		return res, nil
	}
	setEndToEnd(res, measured)
	res.set("setup_s", setupS)
	var lat []time.Duration
	for _, u := range measured.updates {
		if u.err == nil {
			lat = append(lat, u.end-u.start)
		}
	}
	sortDurations(lat)
	res.set("update_ops_per_s", float64(len(measured.updates))/measured.elapsed.Seconds())
	res.set("update_p50_ms", ms(quantile(lat, 0.50)))
	res.set("update_p99_ms", ms(quantile(lat, 0.99)))
	res.set("update_count", float64(len(lat)))
	recall, err := churnRecall(res, c, in, verify)
	if err != nil {
		return nil, err
	}
	res.set("recall_at_10", recall)
	// The benchmark's own logs are released first, so the heap growth
	// counts the deployment, its cache and its subscriptions only.
	c.ops, c.searches, c.profiles, st.notes.notes, c.first, c.last = nil, nil, nil, nil, nil, nil
	phasesOut, measured = nil, nil
	res.set("heap_mb", liveHeapMB()-heap0)
	// The inputs were live when heap0 was taken; keeping them live up to
	// here leaves them out of the growth, whatever their size.
	runtime.KeepAlive(in)
	runtime.KeepAlive(c) // the fresh users and the targets
	runtime.KeepAlive(subscribers)
	runtime.KeepAlive(verify)
	return res, nil
}

// audit runs n more writer operations off the clock, each between two
// searches for the written user's own profile through the measured serving
// path. The first search leaves the answer from before the operation in
// the result cache; the second must see the operation: an inserted user is
// a candidate of its own profile at distance 0, a deleted one is gone. A
// result cache that missed an invalidation fails this on every operation.
func (c *churn) audit(res *result, n int) error {
	search := func(profile []float64) (map[uint64]bool, error) {
		ms, partial, err := c.st.serving.Search(profile, topK, 0)
		if err == nil && partial {
			err = fmt.Errorf("partial answer")
		}
		found := make(map[uint64]bool, len(ms))
		for _, m := range ms {
			found[m.ID] = true
		}
		return found, err
	}
	for i := 0; i < n; i++ {
		insert, id, profile, ok := c.next()
		if !ok {
			return errSupply
		}
		before, err := search(profile)
		if err != nil {
			return fmt.Errorf("audit search %d: %w", i, err)
		}
		c.step()
		if u := c.ops[len(c.ops)-1]; u.err != nil {
			return fmt.Errorf("audit %s %d: %w", u.name(), u.id, u.err)
		}
		after, err := search(profile)
		if err != nil {
			return fmt.Errorf("audit search %d: %w", i, err)
		}
		if before[id] == insert || after[id] != insert {
			res.fail("audit %d: user %d found before/after its %s: %v/%v", i, id, c.ops[len(c.ops)-1].name(), before[id], after[id])
		}
	}
	return nil
}

// callError returns the first writer operation or search that failed or
// answered partially.
func (c *churn) callError() error {
	for _, u := range c.ops {
		if u.err != nil {
			return fmt.Errorf("%s %d: %w", u.name(), u.id, u.err)
		}
	}
	for i, s := range c.searches {
		switch {
		case s.err != nil:
			return fmt.Errorf("search %d: %w", i, s.err)
		case s.partial:
			return fmt.Errorf("search %d: partial answer", i)
		}
	}
	return nil
}

// scanCandidates runs a cache-free search for every target, deep enough
// to return every candidate, and returns each target's candidates with
// their distances.
func (c *churn) scanCandidates() ([]map[uint64]float64, error) {
	nodes := make([]frontend.DynNode, len(c.st.shards))
	for i, s := range c.st.shards {
		nodes[i] = s.remote
	}
	all := len(c.indexed) + c.window
	out := make([]map[uint64]float64, len(c.targets))
	for i, q := range c.targets {
		ms, partial, err := c.st.f.DynSearchSharded(c.st.parts, nodes, q.profile, all, q.exclude)
		if err == nil && partial {
			err = fmt.Errorf("partial answer")
		}
		if err != nil {
			return nil, fmt.Errorf("candidate scan of target %d: %w", i, err)
		}
		out[i] = make(map[uint64]float64, len(ms))
		for _, m := range ms {
			out[i][m.ID] = m.Distance
		}
	}
	return out, nil
}

// lifetimes maps each fresh user to the op-log index of its insert and
// delete.
func (c *churn) lifetimes() (insAt, delAt map[uint64]int) {
	insAt, delAt = make(map[uint64]int), make(map[uint64]int)
	for i, u := range c.ops {
		if u.insert {
			insAt[u.id] = i
		} else {
			delAt[u.id] = i
		}
	}
	return insAt, delAt
}

// liveAt reports whether user id is live in some state a search could
// have read: one with s writer operations applied, lo ≤ s ≤ hi. Indexed
// users are never deleted; fresh users live after their insert, up to and
// including the state their delete reads.
func (c *churn) liveAt(id uint64, lo, hi int, insAt, delAt map[uint64]int) bool {
	if id >= 1 && id <= uint64(len(c.indexed)) {
		return true
	}
	ins, ok := insAt[id]
	if !ok {
		return false
	}
	del, ok := delAt[id]
	if !ok {
		del = len(c.ops)
	}
	return max(lo, ins+1) <= min(hi, del)
}

func (c *churn) isIndexed(id uint64) bool { return id >= 1 && id <= uint64(len(c.indexed)) }

func (c *churn) profile(id uint64) []float64 {
	if c.isIndexed(id) {
		return c.indexed[id-1]
	}
	return c.profiles[id]
}

// checkSearches validates every search and returns the bad ones.
func checkSearches(res *result, c *churn) map[int]bool {
	insAt, delAt := c.lifetimes()
	bad := make(map[int]bool)
	for i, s := range c.searches {
		var first, last map[uint64]float64
		if c.last != nil {
			first, last = c.first[s.q], c.last[s.q]
		}
		if err := c.checkSearch(s, c.targets[s.q], insAt, delAt, first, last); err != nil {
			bad[i] = true
			res.fail("search %d: %v", i, err)
		}
	}
	return bad
}

// checkSearch requires an ascending answer of at most k users, self
// excluded, each live in a state the search could have read and at its
// exact distance.
//
// The answer must also hold every user certain to be a candidate in each
// of those states, unless k users at most as far were returned. Which
// bucket an insert fills is the client's choice, so the benchmark cannot
// predict when a fresh user becomes a candidate; the two cache-free scans
// of the target (first, last; nil skips this part) settle it for these
// users: indexed users both scans found, since indexed users are never
// deleted, and fresh users the last scan found, from their insert on,
// since an entry leaves its bucket only when it is deleted. A result
// cache that missed an invalidation fails this.
func (c *churn) checkSearch(s searchRec, target query, insAt, delAt map[uint64]int, first, last map[uint64]float64) error {
	if len(s.matches) > topK {
		return fmt.Errorf("%d matches, want at most %d", len(s.matches), topK)
	}
	for i, m := range s.matches {
		if i > 0 && m.Distance < s.matches[i-1].Distance {
			return fmt.Errorf("matches not ascending at %d", i)
		}
		if target.exclude != 0 && m.ID == target.exclude {
			return fmt.Errorf("excluded user %d returned", m.ID)
		}
		if !c.liveAt(m.ID, s.lo, s.hi, insAt, delAt) {
			return fmt.Errorf("user %d not live between writer ops %d and %d", m.ID, s.lo, s.hi)
		}
		if d := vec.Distance(target.profile, c.profile(m.ID)); d != m.Distance {
			return fmt.Errorf("user %d at distance %v, want %v", m.ID, m.Distance, d)
		}
	}
	worst := math.Inf(1)
	if len(s.matches) == topK {
		worst = s.matches[topK-1].Distance
	}
	returned := make(map[uint64]bool, len(s.matches))
	for _, m := range s.matches {
		returned[m.ID] = true
	}
	for id, d := range last {
		if returned[id] || d >= worst {
			continue
		}
		if c.isIndexed(id) {
			if _, ok := first[id]; !ok {
				continue
			}
		} else if insAt[id] >= s.lo {
			continue
		}
		return fmt.Errorf("candidate %d at distance %v missing", id, d)
	}
	return nil
}

// checkSubscriptions replays the op log into the subscription oracle:
// every successful operation must have emitted exactly the notifications
// the oracle predicts, and every standing result must end equal to the
// oracle's. A mismatching operation is marked bad.
func checkSubscriptions(res *result, c *churn, in *inputs) error {
	st := c.st
	oracle, err := st.f.NewSubOracle(st.parts, nil)
	if err != nil {
		return fmt.Errorf("subscription oracle: %w", err)
	}
	for _, u := range in.uploads {
		oracle.PutProfile(u.ID, u.Profile)
	}
	for _, id := range st.subIDs {
		want, err := oracle.Register(id, topK, st.subQuery[id], st.seeds[id])
		if err != nil {
			return fmt.Errorf("oracle register %d: %w", id, err)
		}
		if err := equalEntries(st.initial[id], want); err != nil {
			res.fail("subscription %d initial result: %v", id, err)
		}
	}
	for i := range c.ops {
		u := &c.ops[i]
		var want []subs.Notification
		if u.insert {
			if want, err = oracle.Insert(u.id, c.profiles[u.id]); err != nil {
				return fmt.Errorf("oracle insert %d: %w", u.id, err)
			}
		} else {
			want = oracle.Delete(u.id)
		}
		if err := equalNotes(st.notes.notes[u.notes[0]:u.notes[1]], want); err != nil {
			u.bad = true
			res.fail("%s %d notifications: %v", u.name(), u.id, err)
		}
	}
	for _, id := range st.subIDs {
		got, _ := st.serving.Subscriptions().TopK(id)
		want, _ := oracle.TopK(id)
		if err := equalEntries(got, want); err != nil {
			res.fail("subscription %d final result: %v", id, err)
		}
	}
	return nil
}

func equalEntries(got, want []subs.Entry) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d entries, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("entry %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	return nil
}

// equalNotes compares notifications field by field, except the global
// sequence number.
func equalNotes(got, want []subs.Notification) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d notifications, want %d", len(got), len(want))
	}
	for i := range got {
		g := got[i]
		g.Seq = want[i].Seq
		if g != want[i] {
			return fmt.Errorf("notification %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	return nil
}

// churnRecall runs the verification queries against the final state and
// returns their mean recall@10 against brute force over the live users.
func churnRecall(res *result, c *churn, in *inputs, verify []query) (float64, error) {
	ids := make([]uint64, 0, len(in.uploads)+len(c.live))
	profiles := make([][]float64, 0, cap(ids))
	for _, u := range in.uploads {
		ids = append(ids, u.ID)
		profiles = append(profiles, u.Profile)
	}
	for _, id := range c.live {
		ids = append(ids, id)
		profiles = append(profiles, c.profiles[id])
	}
	final := len(c.ops)
	insAt, delAt := c.lifetimes()
	// A serving path of their own leaves the measured one's cache as the
	// workload filled it.
	nodes := make([]frontend.DynNode, len(c.st.shards))
	for i, s := range c.st.shards {
		nodes[i] = s.remote
	}
	serving, err := c.st.f.NewDynServing(c.st.parts, nodes, nil, frontend.DefaultServingConfig())
	if err != nil {
		return 0, err
	}
	var sum float64
	for i, q := range verify {
		got, partial, err := serving.Search(q.profile, topK, 0)
		if err == nil && partial {
			err = fmt.Errorf("partial answer")
		}
		if err != nil {
			return 0, fmt.Errorf("verification search %d: %w", i, err)
		}
		s := searchRec{opRec: opRec{matches: got}, lo: final, hi: final}
		if err := c.checkSearch(s, q, insAt, delAt, nil, nil); err != nil {
			res.fail("verification search %d: %v", i, err)
		}
		truth := baseline.BruteForceTopK(profiles, q.profile, topK)
		for j := range truth {
			truth[j].ID = ids[truth[j].ID]
		}
		sum += baseline.RecallAtK(truth, scored(got))
	}
	return sum / float64(len(verify)), nil
}
