package frontend

import (
	"context"
	"errors"
	"fmt"
	"net"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pisd/internal/cloud"
	"pisd/internal/core"
	"pisd/internal/faultnet"
	"pisd/internal/shard"
	"pisd/internal/transport"
)

// servingFixture builds a 2-shard local deployment and returns the
// frontend, dataset, uploads and the shard pool.
func servingFixture(t *testing.T, n int) (*Frontend, []Upload, *shard.Pool, [][]float64) {
	t.Helper()
	f, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	ds := testPopulation(t, n)
	ups := uploadsFrom(ds, f)
	shards, err := f.BuildShardedIndex(ups, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	nodes := make([]shard.Node, len(shards))
	for s := range nodes {
		nodes[s] = shard.NewLocal(cloud.New())
	}
	pool, err := shard.NewPool(shard.DefaultConfig(), nodes...)
	if err != nil {
		t.Fatal(err)
	}
	for s, sh := range shards {
		if err := pool.InstallShard(s, sh.Index, sh.EncProfiles); err != nil {
			t.Fatal(err)
		}
	}
	return f, ups, pool, ds.Profiles
}

// TestServingCoalescerEquivalence is the coalescer's headline contract:
// concurrent Discover calls folded into shared SecRecBatch flushes return
// byte-identical matches to serial Discover. Runs with the cache
// disabled so every call actually rides a flush; `go test -race` makes
// this double as the coalescer's concurrency check.
func TestServingCoalescerEquivalence(t *testing.T) {
	const n, k, queries = 400, 7, 24
	f, _, pool, profiles := servingFixture(t, n)

	targets := make([][]float64, queries)
	excludes := make([]uint64, queries)
	for i := range targets {
		id := uint64(i*16 + 1)
		targets[i] = profiles[id-1]
		excludes[i] = id
	}
	want := make([][]Match, queries)
	for i := range targets {
		m, partial, err := f.Discover(context.Background(), pool, targets[i], k, excludes[i])
		if err != nil || partial {
			t.Fatalf("serial discover %d: partial=%v err=%v", i, partial, err)
		}
		want[i] = m
	}

	serving, err := f.NewServing(pool, ServingConfig{MaxBatch: 8, Window: 100 * time.Microsecond, CacheEntries: 0})
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 2; round++ {
		got := make([][]Match, queries)
		errs := make([]error, queries)
		var wg sync.WaitGroup
		for i := range targets {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				m, partial, err := serving.Discover(context.Background(), targets[i], k, excludes[i])
				if err == nil && partial {
					err = errors.New("partial result with all shards alive")
				}
				got[i], errs[i] = m, err
			}(i)
		}
		wg.Wait()
		for i := range targets {
			if errs[i] != nil {
				t.Fatalf("round %d query %d: %v", round, i, errs[i])
			}
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("round %d query %d: coalesced result diverged from serial:\n got %v\nwant %v",
					round, i, got[i], want[i])
			}
		}
	}
}

// TestServingCoalescerEquivalenceFaultyLatency repeats the equivalence
// check over real TCP transports whose reads suffer seeded injected
// latency: slow shards delay coalesced flushes but must not change a
// single byte of any result, and latency alone must never flag partial.
func TestServingCoalescerEquivalenceFaultyLatency(t *testing.T) {
	const n, k, queries = 240, 5, 10
	f, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	ds := testPopulation(t, n)
	ups := uploadsFrom(ds, f)
	shards, err := f.BuildShardedIndex(ups, 2, nil)
	if err != nil {
		t.Fatal(err)
	}

	fn := faultnet.New(faultnet.Plan{
		Seed:           13,
		ReadFaultBytes: 4096,
		ReadLatency:    2 * time.Millisecond,
	})
	nodes := make([]shard.Node, len(shards))
	for s := range nodes {
		srv := transport.NewServer(cloud.New())
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		if err := srv.Serve(fn.WrapListener(fmt.Sprintf("server%d", s), ln)); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			srv.Shutdown(ctx)
		})
		r := shard.NewRemoteDialer(ln.Addr().String(), fn.Dialer(fmt.Sprintf("client%d", s)))
		r.SetConns(2)
		t.Cleanup(func() { r.Close() })
		nodes[s] = r
	}
	pool, err := shard.NewPool(shard.DefaultConfig(), nodes...)
	if err != nil {
		t.Fatal(err)
	}
	fn.SetEnabled(false) // clean install phase
	for s, sh := range shards {
		if err := pool.InstallShard(s, sh.Index, sh.EncProfiles); err != nil {
			t.Fatal(err)
		}
	}

	targets, _ := ds.Queries(queries, 3)
	want := make([][]Match, queries)
	for i, q := range targets {
		m, partial, err := f.Discover(context.Background(), pool, q, k, 0)
		if err != nil || partial {
			t.Fatalf("clean serial discover %d: partial=%v err=%v", i, partial, err)
		}
		want[i] = m
	}

	fn.SetEnabled(true) // latency on for the coalesced run
	serving, err := f.NewServing(pool, ServingConfig{MaxBatch: 4, Window: 200 * time.Microsecond, CacheEntries: 0})
	if err != nil {
		t.Fatal(err)
	}
	got := make([][]Match, queries)
	errs := make([]error, queries)
	var wg sync.WaitGroup
	for i := range targets {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			m, partial, err := serving.Discover(context.Background(), targets[i], k, 0)
			if err == nil && partial {
				err = errors.New("latency alone flagged a partial result")
			}
			got[i], errs[i] = m, err
		}(i)
	}
	wg.Wait()
	for i := range targets {
		if errs[i] != nil {
			t.Fatalf("query %d: %v", i, errs[i])
		}
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("query %d: result diverged under injected latency", i)
		}
	}
}

// countingFanout counts SecRecBatch flushes and queries reaching the
// cloud tier.
type countingFanout struct {
	inner   FanoutBatchServer
	flushes atomic.Int64
	queries atomic.Int64
}

func (c *countingFanout) SecRecBatch(ctx context.Context, ts []*core.Trapdoor) ([][]uint64, [][][]byte, bool, error) {
	c.flushes.Add(1)
	c.queries.Add(int64(len(ts)))
	return c.inner.SecRecBatch(ctx, ts)
}

// TestServingCacheSkipsCloud pins the cache's core property: a repeated
// search pattern is answered with ZERO queries reaching the cloud tier,
// and byte-identical matches.
func TestServingCacheSkipsCloud(t *testing.T) {
	const n, k = 400, 5
	f, _, pool, profiles := servingFixture(t, n)
	cf := &countingFanout{inner: pool}
	serving, err := f.NewServing(cf, ServingConfig{CacheEntries: 16})
	if err != nil {
		t.Fatal(err)
	}

	first, partial, err := serving.Discover(context.Background(), profiles[0], k, 1)
	if err != nil || partial {
		t.Fatalf("first discover: partial=%v err=%v", partial, err)
	}
	if got := cf.queries.Load(); got != 1 {
		t.Fatalf("first discover reached the cloud %d times, want 1", got)
	}
	second, partial, err := serving.Discover(context.Background(), profiles[0], k, 1)
	if err != nil || partial {
		t.Fatalf("second discover: partial=%v err=%v", partial, err)
	}
	if got := cf.queries.Load(); got != 1 {
		t.Fatalf("cache hit reached the cloud: %d queries, want 1", got)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("cached result diverged:\n got %v\nwant %v", second, first)
	}
	// Different k over the same pattern still hits (the cache stores the
	// pre-rank candidate set).
	if _, _, err := serving.Discover(context.Background(), profiles[0], k+3, 1); err != nil {
		t.Fatal(err)
	}
	if got := cf.queries.Load(); got != 1 {
		t.Fatalf("k-variant over cached pattern reached the cloud: %d queries, want 1", got)
	}
	// A different target misses.
	if _, _, err := serving.Discover(context.Background(), profiles[9], k, 10); err != nil {
		t.Fatal(err)
	}
	if got := cf.queries.Load(); got != 2 {
		t.Fatalf("distinct pattern should miss: %d queries, want 2", got)
	}
}

// blockingFanout parks every flush until released.
type blockingFanout struct {
	entered chan struct{}
	release chan struct{}
}

func (b *blockingFanout) SecRecBatch(ctx context.Context, ts []*core.Trapdoor) ([][]uint64, [][][]byte, bool, error) {
	b.entered <- struct{}{}
	<-b.release
	return make([][]uint64, len(ts)), make([][][]byte, len(ts)), false, nil
}

// TestServingAdmissionRejects pins the backpressure contract: once
// MaxInflight discoveries are admitted, the next call fails fast with
// ErrOverloaded instead of queueing, and admitted calls complete
// unharmed.
func TestServingAdmissionRejects(t *testing.T) {
	f, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	ds := testPopulation(t, 120)
	if _, err := f.BuildShardedIndex(uploadsFrom(ds, f), 1, nil); err != nil {
		t.Fatal(err)
	}
	bf := &blockingFanout{entered: make(chan struct{}, 4), release: make(chan struct{})}
	serving, err := f.NewServing(bf, ServingConfig{MaxInflight: 2, CacheEntries: 0})
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, _, errs[i] = serving.Discover(context.Background(), ds.Profiles[i], 3, 0)
		}(i)
	}
	// Wait until both admitted calls are parked inside the fan-out.
	<-bf.entered
	<-bf.entered

	if _, _, err := serving.Discover(context.Background(), ds.Profiles[5], 3, 0); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("third concurrent discover: got %v, want ErrOverloaded", err)
	}

	close(bf.release)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("admitted discover %d failed: %v", i, err)
		}
	}
	// Slots returned: the gate admits again.
	if _, _, err := serving.Discover(context.Background(), ds.Profiles[6], 3, 0); err != nil {
		t.Fatalf("discover after release: %v", err)
	}
}
