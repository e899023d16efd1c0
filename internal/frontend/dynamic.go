package frontend

import (
	"fmt"
	"sync"

	"pisd/internal/core"
	"pisd/internal/lsh"
	"pisd/internal/obs"
	"pisd/internal/subs"
)

// The dynamic scheme (Sec. III-D) has one search protocol and one
// insert/delete protocol, and this file serves each through one path. A
// single cloud is the one-shard case: BuildShardedDynamicIndex(uploads,
// 1, nil) builds its index, and every read goes through dynRead, every
// write through DynServing.Insert/Delete.

// DynShard is one cloud shard's dynamic state: the shard's updatable
// index, the front-end client holding its round keys, and the encrypted
// profiles of the users the shard owns. The Client routes this shard's
// secure insert/delete/search rounds; clients of different shards are
// independent, so cross-shard fan-out stays parallel.
type DynShard struct {
	Index       *core.DynIndex
	Client      *core.DynClient
	EncProfiles map[uint64][]byte
}

// DynNode is the per-shard cloud surface the dynamic scheme drives: the
// bucket store plus the encrypted-profile store. shard.Node
// implementations satisfy it.
type DynNode interface {
	core.BucketStore
	// FetchProfiles returns encrypted profiles; an unknown id fails the
	// whole batch.
	FetchProfiles(ids []uint64) ([][]byte, error)
	// FetchProfilesSparse is FetchProfiles with gap tolerance: an unknown
	// id answers as an empty entry.
	FetchProfilesSparse(ids []uint64) ([][]byte, error)
	PutProfiles(profiles map[uint64][]byte) error
	DeleteProfile(id uint64) error
}

// BuildShardedDynamicIndex builds one updatable index per shard over the
// uploads each shard owns. Every shard's index shares the global
// parameters sized for the full upload set, so bucket references computed
// by any shard's client stay valid as users churn; shard builds run in
// parallel. A nil owner means core.DefaultOwner (id mod shards).
func (f *Frontend) BuildShardedDynamicIndex(uploads []Upload, shards int, owner func(uint64) int) ([]DynShard, error) {
	if shards < 1 {
		return nil, fmt.Errorf("frontend: shard count must be >= 1, got %d", shards)
	}
	if owner == nil {
		owner = core.DefaultOwner(shards)
	}
	items, p, err := f.prepare(uploads, false)
	if err != nil {
		return nil, err
	}
	parts := make([][]core.Item, shards)
	for _, it := range items {
		s, err := ownerShard(owner, shards, it.ID)
		if err != nil {
			return nil, err
		}
		parts[s] = append(parts[s], it)
	}

	out := make([]DynShard, shards)
	errs := make([]error, shards)
	var wg sync.WaitGroup
	for s := 0; s < shards; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			idx, client, err := core.BuildDynamic(f.keys, parts[s], p)
			if err != nil {
				errs[s] = err
				return
			}
			out[s] = DynShard{Index: idx, Client: client, EncProfiles: make(map[uint64][]byte)}
		}(s)
	}
	wg.Wait()
	for s, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("frontend: build dynamic shard %d: %w", s, err)
		}
	}
	f.params = p
	f.built = true
	f.rehashed = false

	cts, err := f.encryptProfileSlice(uploads)
	if err != nil {
		return nil, err
	}
	for i, u := range uploads {
		out[owner(u.ID)].EncProfiles[u.ID] = cts[i]
	}
	return out, nil
}

// ownerShard resolves the shard owning id, range-checked against n
// shards.
func ownerShard(owner func(uint64) int, n int, id uint64) (int, error) {
	s := owner(id)
	if s < 0 || s >= n {
		return 0, fmt.Errorf("frontend: owner(%d) = %d out of range [0,%d)", id, s, n)
	}
	return s, nil
}

// checkDynDeployment rejects a malformed dynamic deployment up front: a
// shard without a client or a node would otherwise panic inside a
// fan-out goroutine, where no caller can recover it.
func checkDynDeployment(shards []DynShard, nodes []DynNode) error {
	if len(shards) == 0 || len(shards) != len(nodes) {
		return fmt.Errorf("frontend: %d shards but %d nodes", len(shards), len(nodes))
	}
	for s := range shards {
		if shards[s].Client == nil {
			return fmt.Errorf("frontend: shard %d has no dynamic client", s)
		}
		if nodes[s] == nil {
			return fmt.Errorf("frontend: shard %d has no node", s)
		}
	}
	return nil
}

// DynSearchSharded runs one uncached dynamic search across all shards
// and distance-ranks the merged candidates. Shards that fail are skipped
// and the result is flagged partial; an error is returned only when every
// shard fails. shards[s] must pair with nodes[s]; a single cloud is the
// one-shard case.
func (f *Frontend) DynSearchSharded(shards []DynShard, nodes []DynNode, targetProfile []float64, k int, excludeID uint64) ([]Match, bool, error) {
	if err := checkDynDeployment(shards, nodes); err != nil {
		return nil, false, err
	}
	ids, vecs, partial, err := f.dynRead(shards, nodes, f.family.Hash(targetProfile), nil)
	if err != nil {
		return nil, false, err
	}
	matches, err := f.rankPlain(targetProfile, ids, vecs, k, excludeID, nil)
	if err != nil {
		return nil, false, err
	}
	return matches, partial, nil
}

// dynRead is the dynamic scheme's one read path, pre-rank: the bucket
// references key a cache lookup; a miss runs every shard's Search and
// FetchProfiles concurrently, merges the candidates, decrypts them and
// fills the cache with a complete (non-partial) answer. The plaintext
// candidate set is the cacheable unit: one entry serves every k and
// excludeID. cache may be nil.
func (f *Frontend) dynRead(shards []DynShard, nodes []DynNode, meta lsh.Metadata, cache *ResultCache) (ids []uint64, vecs [][]float64, partial bool, err error) {
	var sp obs.Span
	sp.Start()
	var refs []core.BucketRef
	var key CacheKey
	if cache != nil {
		if refs, err = shards[0].Client.Refs(meta); err != nil {
			return nil, nil, false, err
		}
		key = refsKey(refs)
		if ids, vecs, ok := cache.Get(key); ok {
			fmet.cacheHits.Inc()
			sp.Finish(fmet.dynNs)
			return ids, vecs, false, nil
		}
		fmet.cacheMisses.Inc()
	}

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
			if r.ids, r.err = shards[s].Client.Search(nodes[s], meta); r.err == nil {
				r.profiles, r.err = nodes[s].FetchProfiles(r.ids)
			}
		}(s)
	}
	wg.Wait()

	var encProfiles [][]byte
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
	if vecs, err = f.decryptProfiles(ids, encProfiles); err != nil {
		return nil, nil, false, err
	}
	partial = failed > 0
	if !partial {
		// Partial answers are never cached: a recovered shard must not be
		// masked by a degraded cached result.
		cache.Put(key, refs, ids, vecs)
	} else {
		fmet.partials.Inc()
	}
	sp.Finish(fmet.dynNs)
	return ids, vecs, partial, nil
}

// DynServing is the dynamic scheme's serving path and its only write
// entry point: searches are cached keyed on the bucket references the
// cloud observes, and every insert/delete invalidates exactly the entries
// whose read set intersects the buckets it re-seals. The invalidation
// hook rides StoreBuckets — every round of the dynamic protocols
// (including each kick of an insert chain) re-seals its full fetched
// batch through it, so no mutated bucket escapes the hook. Safe for
// concurrent use; mutations serialize against searches so a search
// result can never be cached after the update that outdates it.
type DynServing struct {
	f      *Frontend
	shards []DynShard
	nodes  []DynNode
	// writeNodes wraps nodes with the cache invalidation hook; every
	// write round goes through them.
	writeNodes []DynNode
	owner      func(uint64) int
	cache      *ResultCache
	gate       *AdmissionGate

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

// NewDynServing builds the dynamic serving path. shards[s] must pair with
// nodes[s]; a nil owner means core.DefaultOwner. ServingConfig{} serves
// without a cache or an admission limit.
func (f *Frontend) NewDynServing(shards []DynShard, nodes []DynNode, owner func(uint64) int, cfg ServingConfig) (*DynServing, error) {
	if err := checkDynDeployment(shards, nodes); err != nil {
		return nil, err
	}
	if owner == nil {
		owner = core.DefaultOwner(len(shards))
	}
	cache := NewResultCache(cfg.CacheEntries)
	writeNodes := make([]DynNode, len(nodes))
	for i, n := range nodes {
		writeNodes[i] = invalidatingNode{DynNode: n, cache: cache}
	}
	return &DynServing{
		f:          f,
		shards:     shards,
		nodes:      nodes,
		writeNodes: writeNodes,
		owner:      owner,
		cache:      cache,
		gate:       NewAdmissionGate(cfg.MaxInflight),
	}, nil
}

// Cache exposes the dynamic serving path's result cache (nil when
// disabled).
func (s *DynServing) Cache() *ResultCache { return s.cache }

// Search runs one dynamic discovery. A cache hit replays the merged
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
	ids, vecs, partial, err := s.f.dynRead(s.shards, s.nodes, s.f.family.Hash(targetProfile), s.cache)
	if err != nil {
		return nil, false, err
	}
	matches, err := s.f.rankPlain(targetProfile, ids, vecs, k, excludeID, nil)
	if err != nil {
		return nil, false, err
	}
	return matches, partial, nil
}

// Insert runs the secure insertion on the owning shard — the index rounds
// first, then the encrypted profile upload — and the caller sees that
// shard's error directly: no other shard may hold the user. After the
// insert succeeds, attached subscriptions are evaluated against the new
// profile frontend-side — zero additional cloud operations (§18).
func (s *DynServing) Insert(id uint64, profile []float64) error {
	s.churn.Lock()
	defer s.churn.Unlock()
	sh, err := ownerShard(s.owner, len(s.shards), id)
	if err != nil {
		return err
	}
	ct, err := s.f.EncryptProfile(profile)
	if err != nil {
		return fmt.Errorf("frontend: encrypt profile %d: %w", id, err)
	}
	meta := s.f.family.Hash(profile)
	if err := s.shards[sh].Client.Insert(s.writeNodes[sh], id, meta); err != nil {
		return fmt.Errorf("frontend: insert %d at shard %d: %w", id, sh, err)
	}
	if err := s.writeNodes[sh].PutProfiles(map[uint64][]byte{id: ct}); err != nil {
		return fmt.Errorf("frontend: upload profile %d to shard %d: %w", id, sh, err)
	}
	s.notifyInsert(sh, id, profile, meta)
	return nil
}

// Delete runs the secure deletion on the owning shard — the index rounds
// first, then the encrypted profile removal. After the delete succeeds,
// the profile is evicted from every attached standing result, promoting
// runners-up.
func (s *DynServing) Delete(id uint64, profile []float64) error {
	s.churn.Lock()
	defer s.churn.Unlock()
	sh, err := ownerShard(s.owner, len(s.shards), id)
	if err != nil {
		return err
	}
	if err := s.shards[sh].Client.Delete(s.writeNodes[sh], id, s.f.family.Hash(profile)); err != nil {
		return fmt.Errorf("frontend: delete %d at shard %d: %w", id, sh, err)
	}
	if err := s.writeNodes[sh].DeleteProfile(id); err != nil {
		return fmt.Errorf("frontend: remove profile %d at shard %d: %w", id, sh, err)
	}
	s.notifyDelete(id)
	return nil
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
