package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"time"

	"pisd/internal/cloud"
	"pisd/internal/dataset"
	"pisd/internal/frontend"
	"pisd/internal/obs"
	"pisd/internal/shard"
	"pisd/internal/subs"
	"pisd/internal/transport"
)

// topK is the discovery depth every workload asks for.
const topK = 10

// sizes fixes a workload's deployment and load. Full sizes are the
// benchmark; short sizes only exercise the harness.
type sizes struct {
	users  int     // indexed population n
	dim    int     // profile dimension (the paper's vocabulary size)
	shards int     // cloud shards, one pooled connection each
	hotSet int     // discover-hot and dynamic-churn target set
	subs   int     // dynamic-churn standing top-k subscriptions
	window int     // dynamic-churn live fresh users before the oldest is deleted
	rate   float64 // discover-overload offered arrivals per second
	setups int     // deployments built per run; setup_s is their median
	verify int     // recall verification queries
	prefix int     // serial operations in the traced prefix
	maxQPS float64 // target supply per measured second on fresh-target workloads
}

func fullSizes() sizes {
	return sizes{
		users: 20000, dim: 1000, shards: 2, hotSet: 512, subs: 64, window: 256,
		rate: 2500, setups: 3, verify: 64, prefix: 64, maxQPS: 2000,
	}
}

func shortSizes() sizes {
	return sizes{
		users: 2000, dim: 200, shards: 2, hotSet: 64, subs: 8, window: 32,
		rate: 400, setups: 2, verify: 20, prefix: 16, maxQPS: 8000,
	}
}

// inputs is everything a run derives from its seed before set-up.
type inputs struct {
	sz      sizes
	seed    int64
	ds      *dataset.Dataset
	uploads []frontend.Upload
	cfg     frontend.Config
}

// genInputs builds the seeded population at the production operating
// point. Keys derive from the seed so that per-operation counts repeat
// exactly for a seed.
func genInputs(sz sizes, seed int64) (*inputs, error) {
	dcfg := dataset.DefaultConfig(sz.users)
	dcfg.Dim = sz.dim
	dcfg.Seed = seed
	ds, err := dataset.Generate(dcfg)
	if err != nil {
		return nil, fmt.Errorf("generate dataset: %w", err)
	}
	uploads := make([]frontend.Upload, len(ds.Profiles))
	for i, p := range ds.Profiles {
		uploads[i] = frontend.Upload{ID: uint64(i + 1), Profile: p}
	}
	cfg := frontend.ConfigForPopulation(sz.dim, sz.users)
	cfg.KeySeed = fmt.Sprintf("perfbench/%d", seed)
	cfg.Seed = seed
	return &inputs{sz: sz, seed: seed, ds: ds, uploads: uploads, cfg: cfg}, nil
}

// query is one discovery request: a target profile and the identifier to
// exclude from its answer (0 for none).
type query struct {
	profile []float64
	exclude uint64
}

// freshQueries draws n profiles from the population's topic model that are
// not members of it. stream separates the draws of different uses.
func (in *inputs) freshQueries(n int, stream int64) []query {
	profiles, _ := in.ds.Queries(n, in.seed*1000003+stream)
	qs := make([]query, n)
	for i, p := range profiles {
		qs[i] = query{profile: p}
	}
	return qs
}

// hotUsers draws n distinct indexed users; each queries with its own
// profile and excludes itself.
func (in *inputs) hotUsers(n int, stream int64) []query {
	rng := rand.New(rand.NewSource(in.seed*1000003 + stream))
	perm := rng.Perm(len(in.uploads))[:n]
	qs := make([]query, n)
	for i, u := range perm {
		qs[i] = query{profile: in.uploads[u].Profile, exclude: in.uploads[u].ID}
	}
	return qs
}

// cloudShard is one in-process cloud server behind a TCP transport server,
// with its own metrics registry and the frontend's pooled connection to it.
type cloudShard struct {
	cs     *cloud.Server
	reg    *obs.Registry
	srv    *transport.Server
	remote *shard.Remote
}

func startShards(n int) ([]*cloudShard, error) {
	out := make([]*cloudShard, 0, n)
	for i := 0; i < n; i++ {
		cs := cloud.New()
		reg := obs.NewRegistry()
		cs.SetRegistry(reg)
		srv := transport.NewServer(cs)
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			stopShards(out)
			return nil, fmt.Errorf("start shard %d: %w", i, err)
		}
		out = append(out, &cloudShard{cs: cs, reg: reg, srv: srv, remote: shard.NewRemote(addr)})
	}
	return out, nil
}

// stopShards closes the frontend connections, then stops each server and
// waits for its goroutines.
func stopShards(shards []*cloudShard) {
	for i, s := range shards {
		s.remote.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		if err := s.srv.Shutdown(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: stop shard %d: %v\n", i, err)
		}
		cancel()
	}
}

// traffic sums the framed bytes sent and received over every shard
// connection.
func traffic(shards []*cloudShard) int64 {
	var total int64
	for _, s := range shards {
		tx, rx := s.remote.Traffic()
		total += tx + rx
	}
	return total
}

// staticStack is a deployed static index: frontend, shards, the pool over
// them and the production serving path.
type staticStack struct {
	f       *frontend.Frontend
	shards  []*cloudShard
	pool    *shard.Pool
	serving *frontend.Serving
	tr      *tracer // nil without --trace 1
}

// buildStatic runs the static set-up: index build, profile encryption and
// install on every shard. With a tracer the pool's nodes and the serving
// path's fan-out are wrapped in its shims.
func buildStatic(in *inputs, tr *tracer) (*staticStack, error) {
	f, err := frontend.New(in.cfg)
	if err != nil {
		return nil, err
	}
	parts, err := f.BuildShardedIndex(in.uploads, in.sz.shards, nil)
	if err != nil {
		return nil, err
	}
	shards, err := startShards(len(parts))
	if err != nil {
		return nil, err
	}
	st := &staticStack{f: f, shards: shards, tr: tr}
	nodes := make([]shard.Node, len(shards))
	for i, s := range shards {
		nodes[i] = s.remote
		if tr != nil {
			nodes[i] = legShim{Node: s.remote, shard: i, tr: tr}
		}
	}
	if st.pool, err = shard.NewPool(shard.DefaultConfig(), nodes...); err != nil {
		st.close()
		return nil, err
	}
	for s, p := range parts {
		if err := st.pool.InstallShard(s, p.Index, p.EncProfiles); err != nil {
			st.close()
			return nil, err
		}
	}
	if st.serving, err = st.newServing(); err != nil {
		st.close()
		return nil, err
	}
	return st, nil
}

// newServing returns a serving path with its own empty result cache over
// the stack's pool (through the flush shim when traced).
func (st *staticStack) newServing() (*frontend.Serving, error) {
	var fan frontend.FanoutBatchServer = st.pool
	if st.tr != nil {
		fan = flushShim{inner: st.pool, tr: st.tr}
	}
	return st.f.NewServing(fan, frontend.DefaultServingConfig())
}

func (st *staticStack) close() { stopShards(st.shards) }

// dynStack is a deployed dynamic index with the cached serving path and
// its standing subscriptions.
type dynStack struct {
	f       *frontend.Frontend
	parts   []frontend.DynShard
	shards  []*cloudShard
	serving *frontend.DynServing
	notes   *noteLog

	subIDs   []uint64
	seeds    map[uint64][]uint64     // registration search candidates per subscription
	initial  map[uint64][]subs.Entry // standing result returned by Subscribe
	subQuery map[uint64][]float64
}

// noteLog records emitted notifications in order. The emit callback runs
// synchronously on the mutating goroutine.
type noteLog struct {
	notes []subs.Notification
	tr    *tracer
}

func (l *noteLog) emit(n subs.Notification) {
	if l.tr != nil && l.tr.on.Load() {
		l.tr.addEmit(time.Now())
	}
	l.notes = append(l.notes, n)
}

// buildDynamic runs the dynamic set-up: per-shard dynamic index build,
// profile encryption, install, and registration of one standing top-k
// subscription per subscriber (one seeding search each).
func buildDynamic(in *inputs, subscribers []query, tr *tracer) (*dynStack, error) {
	f, err := frontend.New(in.cfg)
	if err != nil {
		return nil, err
	}
	parts, err := f.BuildShardedDynamicIndex(in.uploads, in.sz.shards, nil)
	if err != nil {
		return nil, err
	}
	shards, err := startShards(len(parts))
	if err != nil {
		return nil, err
	}
	st := &dynStack{f: f, parts: parts, shards: shards, notes: &noteLog{tr: tr}}
	nodes := make([]frontend.DynNode, len(shards))
	for i, s := range shards {
		if err := s.remote.InstallDynIndex(parts[i].Index); err != nil {
			st.close()
			return nil, fmt.Errorf("shard %d: install dynamic index: %w", i, err)
		}
		if err := s.remote.PutProfiles(parts[i].EncProfiles); err != nil {
			st.close()
			return nil, fmt.Errorf("shard %d: put profiles: %w", i, err)
		}
		nodes[i] = s.remote
		if tr != nil {
			nodes[i] = dynShim{Remote: s.remote, shard: i, tr: tr}
		}
	}
	if st.serving, err = f.NewDynServing(parts, nodes, nil, frontend.DefaultServingConfig()); err != nil {
		st.close()
		return nil, err
	}
	st.serving.AttachSubscriptions(st.notes.emit)
	params, err := f.IndexParams()
	if err != nil {
		st.close()
		return nil, err
	}
	// A registration search deep enough to return every candidate the
	// shards hold for the target: the oracle is seeded with exactly these.
	allK := in.sz.shards * params.BucketsPerQuery()
	st.seeds = make(map[uint64][]uint64, len(subscribers))
	st.initial = make(map[uint64][]subs.Entry, len(subscribers))
	st.subQuery = make(map[uint64][]float64, len(subscribers))
	for _, q := range subscribers {
		matches, partial, err := st.serving.Search(q.profile, allK, 0)
		if err == nil && partial {
			err = fmt.Errorf("partial answer")
		}
		if err != nil {
			st.close()
			return nil, fmt.Errorf("subscription %d seed search: %w", q.exclude, err)
		}
		ids := make([]uint64, len(matches))
		for i, m := range matches {
			ids[i] = m.ID
		}
		entries, err := st.serving.Subscribe(q.exclude, q.profile, topK)
		if err != nil {
			st.close()
			return nil, fmt.Errorf("subscribe %d: %w", q.exclude, err)
		}
		st.subIDs = append(st.subIDs, q.exclude)
		st.seeds[q.exclude] = ids
		st.initial[q.exclude] = entries
		st.subQuery[q.exclude] = q.profile
	}
	return st, nil
}

func (st *dynStack) close() { stopShards(st.shards) }

// setUp builds a deployment `times` times, keeping the last one, and
// returns the median set-up time: a single set-up on a shared machine is
// too noisy to gate on. Earlier deployments are torn down before the next
// is built.
func setUp[T interface{ close() }](times int, build func() (T, error)) (T, float64, error) {
	var last T
	secs := make([]float64, 0, times)
	for i := 0; i < times; i++ {
		runtime.GC()
		start := time.Now()
		st, err := build()
		if err != nil {
			return last, 0, fmt.Errorf("set-up: %w", err)
		}
		secs = append(secs, time.Since(start).Seconds())
		if i < times-1 {
			st.close()
			continue
		}
		last = st
	}
	return last, medianFloat(secs), nil
}

// liveHeapMB returns the live heap after a full collection, in MiB.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}
