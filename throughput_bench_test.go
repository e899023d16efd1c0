// Sustained-throughput benchmarks for the serving stack: full
// privacy-preserving discoveries (trapdoor → SecRec over TCP → decrypt →
// rank) against a transport server on the Fig. 3 workload, measured as
// queries per second with p50/p99 latency.
//
// Three operating points bracket the serving design space:
//
//   - DiscoverySerial: one client, lockstep request/response — the
//     pre-multiplexing baseline (at most 1/RTT queries per connection).
//   - Discovery: many goroutines pipelining on ONE shared connection via
//     the request-ID-multiplexed transport; -cpu scales the concurrency.
//   - DiscoverBatch: batches of trapdoors amortized over one SecRecBatch
//     round trip per batch.
package pisd

import (
	"context"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pisd/internal/cloud"
	"pisd/internal/dataset"
	"pisd/internal/frontend"
	"pisd/internal/shard"
	"pisd/internal/transport"
)

type throughputFixture struct {
	cfg     frontend.Config
	sf      *frontend.Frontend
	addr    string
	queries [][]float64
}

const tputN, tputDim = 5000, 1000

var (
	tputOnce sync.Once
	tput     *throughputFixture
	tputErr  error

	tunedTputOnce sync.Once
	tunedTput     *throughputFixture
	tunedTputErr  error
)

// buildThroughputFixture builds the Fig. 3 workload — 5000 users with
// 1000-dim topic-structured profiles, secure index and encrypted profiles
// installed on a cloud server behind a TCP transport — under the given
// front-end configuration. The server lives for the whole bench binary run.
func buildThroughputFixture(cfg frontend.Config) (*throughputFixture, error) {
	sf, err := frontend.New(cfg)
	if err != nil {
		return nil, err
	}
	dcfg := dataset.DefaultConfig(tputN)
	dcfg.Dim = tputDim
	ds, err := dataset.Generate(dcfg)
	if err != nil {
		return nil, err
	}
	uploads := make([]frontend.Upload, tputN)
	for i, p := range ds.Profiles {
		uploads[i] = frontend.Upload{ID: uint64(i + 1), Profile: p, Meta: sf.ComputeMeta(p)}
	}
	idx, encProfiles, err := sf.BuildIndex(uploads)
	if err != nil {
		return nil, err
	}
	cs := cloud.New()
	cs.SetIndex(idx)
	cs.PutProfiles(encProfiles)
	srv := transport.NewServer(cs)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	queries, _ := ds.Queries(64, 5)
	return &throughputFixture{cfg: cfg, sf: sf, addr: addr, queries: queries}, nil
}

// getThroughputFixture returns the shared PR7-defaults fixture.
func getThroughputFixture(b *testing.B) *throughputFixture {
	b.Helper()
	tputOnce.Do(func() {
		cfg := frontend.DefaultConfig(tputDim)
		// d=10 as in BenchmarkFig3_Discovery: the synthetic topic clusters
		// need more probing headroom than the paper's rendered images.
		cfg.ProbeRange = 10
		cfg.MaxLoop = 2000
		cfg.KeySeed = "throughput-bench"
		tput, tputErr = buildThroughputFixture(cfg)
	})
	if tputErr != nil {
		b.Fatalf("throughput fixture: %v", tputErr)
	}
	return tput
}

// getTunedThroughputFixture returns the fixture built under the
// autotuner's population-tiered operating point (ConfigForPopulation) —
// the same workload as the defaults fixture, so a qps delta between the
// two isolates the tuned (l, atoms, W, d) choice.
func getTunedThroughputFixture(b *testing.B) *throughputFixture {
	b.Helper()
	tunedTputOnce.Do(func() {
		cfg := frontend.ConfigForPopulation(tputDim, tputN)
		cfg.MaxLoop = 2000
		cfg.KeySeed = "throughput-bench-tuned"
		tunedTput, tunedTputErr = buildThroughputFixture(cfg)
	})
	if tunedTputErr != nil {
		b.Fatalf("tuned throughput fixture: %v", tunedTputErr)
	}
	return tunedTput
}

// singlePool drives the fixture's cloud as a one-node pool over one
// multiplexed TCP connection.
func singlePool(b *testing.B, addr string) *shard.Pool {
	remote := shard.NewRemote(addr)
	b.Cleanup(func() { remote.Close() })
	pool, err := shard.NewPool(shard.DefaultConfig(), remote)
	if err != nil {
		b.Fatal(err)
	}
	return pool
}

// latRecorder accumulates per-query latencies concurrently and reports
// QPS and percentile metrics.
type latRecorder struct {
	mu   sync.Mutex
	lats []time.Duration
}

func (r *latRecorder) observe(d time.Duration) {
	r.mu.Lock()
	r.lats = append(r.lats, d)
	r.mu.Unlock()
}

// report emits qps, p50_us and p99_us for the elapsed wall time.
func (r *latRecorder) report(b *testing.B, elapsed time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.lats) == 0 || elapsed <= 0 {
		return
	}
	b.ReportMetric(float64(len(r.lats))/elapsed.Seconds(), "qps")
	sort.Slice(r.lats, func(i, j int) bool { return r.lats[i] < r.lats[j] })
	pct := func(p float64) float64 {
		i := int(p * float64(len(r.lats)-1))
		return float64(r.lats[i].Microseconds())
	}
	b.ReportMetric(pct(0.50), "p50_us")
	b.ReportMetric(pct(0.99), "p99_us")
}

// BenchmarkThroughput_DiscoverySerial is the single-connection lockstep
// baseline: one outstanding request at a time, exactly what the serial
// request/response transport sustained per connection.
func BenchmarkThroughput_DiscoverySerial(b *testing.B) {
	f := getThroughputFixture(b)
	pool := singlePool(b, f.addr)
	rec := &latRecorder{}
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		q := f.queries[i%len(f.queries)]
		qStart := time.Now()
		if _, _, err := f.sf.Discover(context.Background(), pool, q, 10, 0); err != nil {
			b.Fatal(err)
		}
		rec.observe(time.Since(qStart))
	}
	rec.report(b, time.Since(start))
	reportLSHConfig(b, f.cfg)
}

// BenchmarkThroughput_Discovery is the pipelined operating point: many
// concurrent clients multiplexed over ONE shared TCP connection, each
// running full discoveries. GOMAXPROCS (the -cpu flag) scales the
// goroutine count via RunParallel's GOMAXPROCS * SetParallelism workers.
func BenchmarkThroughput_Discovery(b *testing.B) {
	f := getThroughputFixture(b)
	pool := singlePool(b, f.addr)
	rec := &latRecorder{}
	var qctr atomic.Uint64
	b.SetParallelism(8)
	b.ResetTimer()
	start := time.Now()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			q := f.queries[(qctr.Add(1)-1)%uint64(len(f.queries))]
			qStart := time.Now()
			if _, _, err := f.sf.Discover(context.Background(), pool, q, 10, 0); err != nil {
				b.Error(err)
				return
			}
			rec.observe(time.Since(qStart))
		}
	})
	rec.report(b, time.Since(start))
	reportLSHConfig(b, f.cfg)
}

// servingBench runs many concurrent LOCKSTEP clients (one outstanding
// discovery each, no client-side batching) against the full serving
// stack: admission gate → optional result cache → coalescer folding the
// concurrent singles into SecRecBatch flushes → pooled connections to
// the shard. This is the multi-core serving path the lockstep baseline
// (BenchmarkThroughput_DiscoverySerial) is compared against.
func servingBench(b *testing.B, f *throughputFixture, cacheEntries int) {
	remote := shard.NewRemote(f.addr)
	// PISD_BENCH_CONNS sizes the connection pool (default 4) so the
	// EXPERIMENTS.md cores × conns-per-shard matrix can sweep it.
	conns := 4
	if v := os.Getenv("PISD_BENCH_CONNS"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			b.Fatalf("PISD_BENCH_CONNS=%q: want a positive integer", v)
		}
		conns = n
	}
	remote.SetConns(conns)
	defer remote.Close()
	pool, err := shard.NewPool(shard.DefaultConfig(), remote)
	if err != nil {
		b.Fatal(err)
	}
	serving, err := f.sf.NewServing(pool, frontend.ServingConfig{
		MaxBatch:     16,
		Window:       200 * time.Microsecond,
		MaxInflight:  0, // open gate: the bench must never shed its own load
		CacheEntries: cacheEntries,
	})
	if err != nil {
		b.Fatal(err)
	}
	rec := &latRecorder{}
	var qctr atomic.Uint64
	b.SetParallelism(8)
	b.ResetTimer()
	start := time.Now()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			q := f.queries[(qctr.Add(1)-1)%uint64(len(f.queries))]
			qStart := time.Now()
			if _, _, err := serving.Discover(context.Background(), q, 10, 0); err != nil {
				b.Error(err)
				return
			}
			rec.observe(time.Since(qStart))
		}
	})
	rec.report(b, time.Since(start))
	reportLSHConfig(b, f.cfg)
}

// BenchmarkThroughput_DiscoverLockstepCoalesced measures the coalescer +
// connection pool alone: the cache is disabled, so every discovery still
// pays a cloud round trip, but concurrent lockstep callers share
// SecRecBatch flushes over the pooled connections.
func BenchmarkThroughput_DiscoverLockstepCoalesced(b *testing.B) {
	servingBench(b, getThroughputFixture(b), 0)
}

// BenchmarkThroughput_DiscoverLockstepCached adds the leakage-free
// result cache: the 64-query working set is cached after the first pass,
// so steady state serves repeated search patterns without touching the
// cloud at all — the paper's admitted search-pattern leakage turned into
// throughput.
func BenchmarkThroughput_DiscoverLockstepCached(b *testing.B) {
	servingBench(b, getThroughputFixture(b), 4096)
}

// BenchmarkThroughput_DiscoverLockstepTuned is the coalesced (cache-off)
// path under the autotuner's operating point instead of the PR7 defaults:
// same workload, same serving stack, tuned (l, atoms, W, d). The qps
// delta against DiscoverLockstepCoalesced is the serving-side payoff of
// the l·(d+1) budget cut.
func BenchmarkThroughput_DiscoverLockstepTuned(b *testing.B) {
	servingBench(b, getTunedThroughputFixture(b), 0)
}

// BenchmarkThroughput_DiscoverBatch amortizes the round trip over batches
// of 32 queries: one SecRecBatch exchange per batch, per-query results
// identical to serial Discover. Reported metrics are per QUERY (b.N counts
// queries), so qps/p50/p99 compare directly with the other two points;
// batch-boundary queries carry the whole exchange's latency.
func BenchmarkThroughput_DiscoverBatch(b *testing.B) {
	const batchSize = 32
	f := getThroughputFixture(b)
	pool := singlePool(b, f.addr)
	rec := &latRecorder{}
	b.ResetTimer()
	start := time.Now()
	for done := 0; done < b.N; done += batchSize {
		size := batchSize
		if left := b.N - done; left < size {
			size = left
		}
		targets := make([][]float64, size)
		for i := range targets {
			targets[i] = f.queries[(done+i)%len(f.queries)]
		}
		bStart := time.Now()
		if _, _, err := f.sf.DiscoverBatch(context.Background(), pool, targets, 10, nil); err != nil {
			b.Fatal(err)
		}
		per := time.Since(bStart) / time.Duration(size)
		for i := 0; i < size; i++ {
			rec.observe(per)
		}
	}
	rec.report(b, time.Since(start))
	reportLSHConfig(b, f.cfg)
}
