package frontend

import (
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"pisd/internal/cloud"
	"pisd/internal/core"
	"pisd/internal/obs"
	"pisd/internal/shard"
)

// countingNode counts the bucket fetches a dynamic search issues against
// one shard, so tests can assert a cache hit touched the cloud zero
// times.
type countingNode struct {
	DynNode
	fetches atomic.Int64
}

func (n *countingNode) FetchBuckets(refs []core.BucketRef) ([]core.DynBucket, error) {
	n.fetches.Add(int64(len(refs)))
	return n.DynNode.FetchBuckets(refs)
}

// dynServingFixture builds a 2-shard dynamic deployment with counting
// nodes and the cached serving path over it.
func dynServingFixture(t *testing.T, n int) (*Frontend, []Upload, []DynShard, []DynNode, []*countingNode, *DynServing) {
	t.Helper()
	f, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	ds := testPopulation(t, n)
	ups := uploadsFrom(ds, f)
	shards, err := f.BuildShardedDynamicIndex(ups, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	nodes := make([]DynNode, len(shards))
	counters := make([]*countingNode, len(shards))
	for s, sh := range shards {
		cs := cloud.New()
		cs.SetDynIndex(sh.Index)
		cs.PutProfiles(sh.EncProfiles)
		counters[s] = &countingNode{DynNode: shard.NewLocal(cs)}
		nodes[s] = counters[s]
	}
	serv, err := f.NewDynServing(shards, nodes, nil, ServingConfig{CacheEntries: 64})
	if err != nil {
		t.Fatal(err)
	}
	return f, ups, shards, nodes, counters, serv
}

func totalFetches(counters []*countingNode) int64 {
	var n int64
	for _, c := range counters {
		n += c.fetches.Load()
	}
	return n
}

// TestDynServingCacheHitSkipsCloud pins the dynamic cache's core
// property: a repeated search fetches ZERO buckets from any shard and
// returns byte-identical matches.
func TestDynServingCacheHitSkipsCloud(t *testing.T) {
	const n, k = 300, 5
	_, ups, _, _, counters, serv := dynServingFixture(t, n)

	first, partial, err := serv.Search(ups[3].Profile, k, ups[3].ID)
	if err != nil || partial {
		t.Fatalf("first search: partial=%v err=%v", partial, err)
	}
	base := totalFetches(counters)
	if base == 0 {
		t.Fatal("first search fetched no buckets")
	}
	second, partial, err := serv.Search(ups[3].Profile, k, ups[3].ID)
	if err != nil || partial {
		t.Fatalf("second search: partial=%v err=%v", partial, err)
	}
	if got := totalFetches(counters); got != base {
		t.Fatalf("cache hit fetched %d buckets, want 0", got-base)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("cached result diverged:\n got %v\nwant %v", second, first)
	}
}

// TestDynServingChurnInvalidation is the stale-hit test: prime the cache
// with searches whose answers an insert and a delete then outdate, churn,
// and assert the next searches reflect the new state exactly — matching
// both a fresh uncached sharded search and the plaintext oracle. A cache
// that missed an invalidation fails this by replaying the pre-churn
// candidate set.
func TestDynServingChurnInvalidation(t *testing.T) {
	const n, k = 300, 5
	f, ups, shards, nodes, _, serv := dynServingFixture(t, n)
	oracle := f.NewDynOracle(ups)

	// --- Insert invalidates ---
	newID := uint64(n + 1)
	// A profile similar to user 8's lands in (a superset of) the buckets
	// user 8's own searches address.
	newProfile := ups[7].Profile

	// Prime the cache with the exact pattern the insert will touch.
	before, partial, err := serv.Search(newProfile, k, 0)
	if err != nil || partial {
		t.Fatalf("pre-insert search: partial=%v err=%v", partial, err)
	}
	for _, m := range before {
		if m.ID == newID {
			t.Fatalf("user %d present before insertion", newID)
		}
	}
	if err := serv.Insert(newID, newProfile); err != nil {
		t.Fatalf("Insert: %v", err)
	}
	oracle.PutProfile(newID, newProfile)

	got, partial, err := serv.Search(newProfile, k, 0)
	if err != nil || partial {
		t.Fatalf("post-insert search: partial=%v err=%v", partial, err)
	}
	if len(got) == 0 || got[0].ID != newID {
		t.Fatalf("stale hit: inserted user %d not the top match of its own profile: %v", newID, got)
	}
	want, partial, err := f.DynSearchSharded(shards, nodes, newProfile, k, 0)
	if err != nil || partial {
		t.Fatalf("fresh post-insert search: partial=%v err=%v", partial, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("post-insert cached path diverged from fresh search:\n got %v\nwant %v", got, want)
	}

	// --- Delete invalidates ---
	victim := ups[12]
	pre, partial, err := serv.Search(victim.Profile, k, 0)
	if err != nil || partial {
		t.Fatalf("pre-delete search: partial=%v err=%v", partial, err)
	}
	if len(pre) == 0 || pre[0].ID != victim.ID {
		t.Fatalf("victim %d not top match of its own profile before deletion: %v", victim.ID, pre)
	}
	if err := serv.Delete(victim.ID, victim.Profile); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	oracle.RemoveProfile(victim.ID)

	got, partial, err = serv.Search(victim.Profile, k, 0)
	if err != nil || partial {
		t.Fatalf("post-delete search: partial=%v err=%v", partial, err)
	}
	for _, m := range got {
		if m.ID == victim.ID {
			t.Fatalf("stale hit: deleted user %d still recommended: %v", victim.ID, got)
		}
	}
	want, partial, err = f.DynSearchSharded(shards, nodes, victim.Profile, k, 0)
	if err != nil || partial {
		t.Fatalf("fresh post-delete search: partial=%v err=%v", partial, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("post-delete cached path diverged from fresh search:\n got %v\nwant %v", got, want)
	}

	// The oracle agrees with the surviving ranking (ties reordered
	// freely): re-rank the secure search's own candidates in plaintext.
	ids := make([]uint64, len(got))
	for i, m := range got {
		ids[i] = m.ID
	}
	ref, err := oracle.RankCandidates(victim.Profile, ids, len(got), 0)
	if err != nil {
		t.Fatalf("oracle rank: %v", err)
	}
	if err := EqualMatches(got, ref); err != nil {
		t.Fatalf("post-churn ranking disagrees with oracle: %v", err)
	}
}

// TestDynServingRejectsMalformedDeployment checks both dynamic entry
// points refuse a shard without a client or a node up front, naming the
// shard, instead of panicking inside a fan-out goroutine on first search.
func TestDynServingRejectsMalformedDeployment(t *testing.T) {
	f, ups, shards, nodes, _, _ := dynServingFixture(t, 60)
	noClient := append([]DynShard(nil), shards...)
	noClient[1].Client = nil
	noNode := append([]DynNode(nil), nodes...)
	noNode[1] = nil
	for _, tc := range []struct {
		name   string
		shards []DynShard
		nodes  []DynNode
	}{
		{"nil client", noClient, nodes},
		{"nil node", shards, noNode},
	} {
		if _, err := f.NewDynServing(tc.shards, tc.nodes, nil, ServingConfig{}); err == nil || !strings.Contains(err.Error(), "shard 1") {
			t.Errorf("NewDynServing with %s: err = %v, want one naming shard 1", tc.name, err)
		}
		if _, _, err := f.DynSearchSharded(tc.shards, tc.nodes, ups[0].Profile, 5, 0); err == nil || !strings.Contains(err.Error(), "shard 1") {
			t.Errorf("DynSearchSharded with %s: err = %v, want one naming shard 1", tc.name, err)
		}
	}
}

// TestDynServingSearchFeedsDynSearchMetric checks the serving path's
// searches feed frontend.dyn_search on a cache miss and a cache hit alike.
func TestDynServingSearchFeedsDynSearchMetric(t *testing.T) {
	_, ups, _, _, _, serv := dynServingFixture(t, 60)
	before := obs.Default.Snapshot()
	for i := 0; i < 2; i++ { // a miss, then a hit
		if _, _, err := serv.Search(ups[3].Profile, 5, 0); err != nil {
			t.Fatal(err)
		}
	}
	d := obs.Default.Snapshot().Diff(before)
	if got := d.Histograms["frontend.dyn_search"].Count; got != 2 {
		t.Fatalf("frontend.dyn_search gained %d samples, want 2", got)
	}
	if d.Counters["frontend.cache_misses"] != 1 || d.Counters["frontend.cache_hits"] != 1 {
		t.Fatalf("cache misses/hits = %d/%d, want 1/1", d.Counters["frontend.cache_misses"], d.Counters["frontend.cache_hits"])
	}
}
