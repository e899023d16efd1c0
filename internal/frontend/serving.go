package frontend

import (
	"context"
	"fmt"
	"sync"
	"time"

	"pisd/internal/core"
	"pisd/internal/lsh"
	"pisd/internal/obs"
	"pisd/internal/subs"
)

// ServingConfig tunes the multi-core serving path: batch coalescing,
// admission control and the search-pattern result cache.
type ServingConfig struct {
	// MaxBatch bounds how many coalesced queries share one SecRecBatch
	// flush; <= 0 defaults to 16.
	MaxBatch int
	// Window bounds how long a queued query waits for the next flush;
	// <= 0 defaults to 200µs.
	Window time.Duration
	// MaxInflight bounds admitted concurrent discoveries; excess calls
	// are rejected with ErrOverloaded. <= 0 means unbounded.
	MaxInflight int
	// CacheEntries bounds the result cache; <= 0 disables caching.
	CacheEntries int
}

// DefaultServingConfig returns the serving defaults: 16-query flushes, a
// 200µs coalescing window, 256 admitted queries and a 4096-entry cache.
func DefaultServingConfig() ServingConfig {
	return ServingConfig{
		MaxBatch:     16,
		Window:       200 * time.Microsecond,
		MaxInflight:  256,
		CacheEntries: 4096,
	}
}

// Serving is the static scheme's high-throughput discovery path: an
// admission gate in front of a trapdoor-keyed result cache in front of an
// adaptive batch coalescer over the shard fan-out. Concurrent Discover
// calls share SecRecBatch flushes; repeated search patterns are answered
// entirely at the frontend with zero cloud traffic (the cache key is the
// trapdoor the cloud would have seen — already-admitted leakage, DESIGN.md
// §15). Safe for concurrent use.
type Serving struct {
	f     *Frontend
	co    *Coalescer
	cache *ResultCache
	gate  *AdmissionGate
}

// NewServing builds the serving path over a sharded fan-out (shard.Pool
// implements FanoutBatchServer; a single cloud is a one-node pool).
func (f *Frontend) NewServing(pool FanoutBatchServer, cfg ServingConfig) (*Serving, error) {
	if pool == nil {
		return nil, fmt.Errorf("frontend: serving needs a fan-out server")
	}
	return &Serving{
		f:     f,
		co:    NewCoalescer(pool, cfg.MaxBatch, cfg.Window),
		cache: NewResultCache(cfg.CacheEntries),
		gate:  NewAdmissionGate(cfg.MaxInflight),
	}, nil
}

// Cache exposes the serving path's result cache (nil when disabled).
func (s *Serving) Cache() *ResultCache { return s.cache }

// Discover runs one discovery through the serving path: admission →
// trapdoor → cache → coalesced fan-out → decrypt → exact distance
// ranking. The matches are byte-identical to Frontend.Discover over the
// same healthy shards: a cache hit replays the exact candidate set the
// cloud returned for this trapdoor, and ranking is deterministic.
// Overload returns ErrOverloaded before any work is done.
func (s *Serving) Discover(ctx context.Context, targetProfile []float64, k int, excludeID uint64) ([]Match, bool, error) {
	if err := s.gate.Acquire(); err != nil {
		return nil, false, err
	}
	defer s.gate.Release()
	var sp obs.Span
	sp.Start()
	td, err := s.f.Trapdoor(targetProfile)
	if err != nil {
		return nil, false, err
	}
	sp.Mark("trapdoor", fmet.trapdoorNs)
	key := trapdoorKey(td)
	if ids, vecs, ok := s.cache.Get(key); ok {
		fmet.cacheHits.Inc()
		matches, err := s.f.rankPlain(targetProfile, ids, vecs, k, excludeID, &sp)
		if err != nil {
			return nil, false, err
		}
		sp.Finish(fmet.discoverNs)
		fmet.discoveries.Inc()
		return matches, false, nil
	}
	fmet.cacheMisses.Inc()
	ids, encProfiles, partial, err := s.co.SecRec(ctx, td)
	if err != nil {
		return nil, false, fmt.Errorf("frontend: serving discovery request: %w", err)
	}
	sp.Mark("fanout", fmet.fanoutNs)
	vecs, err := s.f.decryptProfiles(ids, encProfiles)
	if err != nil {
		return nil, false, err
	}
	if !partial {
		// Partial answers are never cached: a recovered shard must not be
		// masked by a degraded cached result.
		s.cache.Put(key, nil, ids, vecs)
	}
	matches, err := s.f.rankPlain(targetProfile, ids, vecs, k, excludeID, &sp)
	if err != nil {
		return nil, false, err
	}
	sp.Finish(fmet.discoverNs)
	fmet.discoveries.Inc()
	if partial {
		fmet.partials.Inc()
	}
	return matches, partial, nil
}

// DynServing is the dynamic scheme's cached serving path: searches are
// cached keyed on the bucket references the cloud observes, and every
// insert/delete invalidates exactly the entries whose read set intersects
// the buckets it re-seals. The invalidation hook rides StoreBuckets —
// every round of the dynamic protocols (including each kick of an insert
// chain) re-seals its full fetched batch through it, so no mutated bucket
// escapes the hook. Safe for concurrent use; mutations serialize against
// searches so a search result can never be cached after the update that
// outdates it.
type DynServing struct {
	f      *Frontend
	shards []DynShard
	nodes  []DynNode
	owner  func(uint64) int
	cache  *ResultCache
	gate   *AdmissionGate

	// subsm is the attached subscription manager (nil when the serving
	// path runs without standing queries); its hooks run under churn,
	// after the mutation they evaluate succeeded.
	subsm *subs.Manager

	// churn serializes mutations (write side) against search+cache-fill
	// (read side): without it a slow search could fetch buckets, lose the
	// race to an insert, then cache the pre-insert answer after the
	// insert's invalidation pass already ran.
	churn sync.RWMutex
}

// NewDynServing builds the cached dynamic serving path. shards[s] must
// pair with nodes[s]; a nil owner means core.DefaultOwner.
func (f *Frontend) NewDynServing(shards []DynShard, nodes []DynNode, owner func(uint64) int, cfg ServingConfig) (*DynServing, error) {
	if len(shards) == 0 || len(shards) != len(nodes) {
		return nil, fmt.Errorf("frontend: %d shards but %d nodes", len(shards), len(nodes))
	}
	if owner == nil {
		owner = core.DefaultOwner(len(shards))
	}
	return &DynServing{
		f:      f,
		shards: shards,
		nodes:  nodes,
		owner:  owner,
		cache:  NewResultCache(cfg.CacheEntries),
		gate:   NewAdmissionGate(cfg.MaxInflight),
	}, nil
}

// Cache exposes the dynamic serving path's result cache (nil when
// disabled).
func (s *DynServing) Cache() *ResultCache { return s.cache }

// Search runs one cached dynamic discovery. A hit replays the merged
// candidate set of the last identical search with zero cloud traffic;
// the result matches DynSearchSharded exactly as long as no intervening
// update touched the addressed buckets — which the invalidation hook
// guarantees.
func (s *DynServing) Search(targetProfile []float64, k int, excludeID uint64) ([]Match, bool, error) {
	if err := s.gate.Acquire(); err != nil {
		return nil, false, err
	}
	defer s.gate.Release()
	s.churn.RLock()
	defer s.churn.RUnlock()
	meta := s.f.family.Hash(targetProfile)
	refs, err := s.shards[0].Client.Refs(meta)
	if err != nil {
		return nil, false, err
	}
	key := refsKey(refs)
	if ids, vecs, ok := s.cache.Get(key); ok {
		fmet.cacheHits.Inc()
		matches, err := s.f.rankPlain(targetProfile, ids, vecs, k, excludeID, nil)
		return matches, false, err
	}
	fmet.cacheMisses.Inc()
	ids, encProfiles, partial, err := s.f.dynSearchMerged(s.shards, s.nodes, meta)
	if err != nil {
		return nil, false, err
	}
	vecs, err := s.f.decryptProfiles(ids, encProfiles)
	if err != nil {
		return nil, false, err
	}
	if !partial {
		s.cache.Put(key, refs, ids, vecs)
	}
	matches, err := s.f.rankPlain(targetProfile, ids, vecs, k, excludeID, nil)
	if err != nil {
		return nil, false, err
	}
	if partial {
		fmet.partials.Inc()
	}
	return matches, partial, nil
}

// Insert routes a dynamic insertion to the owning shard with the cache
// invalidation hook installed on that shard's bucket store. After the
// insert succeeds, attached subscriptions are evaluated against the new
// profile frontend-side — zero additional cloud operations (§18).
func (s *DynServing) Insert(id uint64, profile []float64) error {
	s.churn.Lock()
	defer s.churn.Unlock()
	if err := s.f.DynInsertSharded(s.shards, s.invalidatingNodes(), s.owner, id, profile); err != nil {
		return err
	}
	s.notifyInsert(id, profile)
	return nil
}

// Delete routes a secure deletion to the owning shard with the cache
// invalidation hook installed on that shard's bucket store. After the
// delete succeeds, the profile is evicted from every attached standing
// result, promoting runners-up.
func (s *DynServing) Delete(id uint64, profile []float64) error {
	s.churn.Lock()
	defer s.churn.Unlock()
	if err := s.f.DynDeleteSharded(s.shards, s.invalidatingNodes(), s.owner, id, profile); err != nil {
		return err
	}
	s.notifyDelete(id)
	return nil
}

// invalidatingNodes wraps every node so StoreBuckets invalidates the
// cache entries whose read set intersects the written refs.
func (s *DynServing) invalidatingNodes() []DynNode {
	out := make([]DynNode, len(s.nodes))
	for i, n := range s.nodes {
		out[i] = invalidatingNode{DynNode: n, cache: s.cache}
	}
	return out
}

// invalidatingNode decorates a DynNode: every bucket write first drops
// the cache entries it outdates.
type invalidatingNode struct {
	DynNode
	cache *ResultCache
}

func (n invalidatingNode) StoreBuckets(refs []core.BucketRef, buckets []core.DynBucket) error {
	n.cache.InvalidateRefs(refs)
	return n.DynNode.StoreBuckets(refs, buckets)
}

// dynSearchMerged is DynSearchSharded up to (but not including)
// decryption and ranking: it returns the merged candidate ids and
// encrypted profiles, which is the cacheable unit (one entry serves every
// k and excludeID).
func (f *Frontend) dynSearchMerged(shards []DynShard, nodes []DynNode, meta lsh.Metadata) (ids []uint64, encProfiles [][]byte, partial bool, err error) {
	type result struct {
		ids      []uint64
		profiles [][]byte
		err      error
	}
	results := make([]result, len(shards))
	var wg sync.WaitGroup
	for s := range shards {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			r := &results[s]
			sids, err := shards[s].Client.Search(nodes[s], meta)
			if err != nil {
				r.err = err
				return
			}
			r.ids = sids
			r.profiles, r.err = nodes[s].FetchProfiles(sids)
		}(s)
	}
	wg.Wait()

	var firstErr error
	failed := 0
	for s, r := range results {
		if r.err != nil {
			failed++
			if firstErr == nil {
				firstErr = fmt.Errorf("shard %d: %w", s, r.err)
			}
			continue
		}
		ids = append(ids, r.ids...)
		encProfiles = append(encProfiles, r.profiles...)
	}
	if failed == len(shards) {
		return nil, nil, false, fmt.Errorf("frontend: sharded dynamic search: all %d shards failed: %w", len(shards), firstErr)
	}
	return ids, encProfiles, failed > 0, nil
}
