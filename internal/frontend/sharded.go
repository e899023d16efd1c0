package frontend

import (
	"errors"
	"fmt"
	"sync"

	"pisd/internal/core"
	"pisd/internal/obs"
)

// Shard is one cloud shard's installable state: the partitioned secure
// index plus the encrypted profiles of the users the shard owns.
type Shard struct {
	Index       *core.Index
	EncProfiles map[uint64][]byte
}

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

// BuildShardedIndex implements ConSecIdx for an S-shard cloud tier: it
// runs the single global cuckoo placement of core.BuildPartitioned and
// derives one secure index per shard, each a projection of the single-node
// index onto the users owner assigns to it. The per-shard encryptions run
// in parallel. A nil owner means core.DefaultOwner (id mod shards).
//
// Because placement, parameters and keys are global, one trapdoor serves
// every shard and the union of the shards' SecRec results equals the
// single-node result exactly.
func (f *Frontend) BuildShardedIndex(uploads []Upload, shards int, owner func(uint64) int) ([]Shard, error) {
	if shards < 1 {
		return nil, fmt.Errorf("frontend: shard count must be >= 1, got %d", shards)
	}
	if owner == nil {
		owner = core.DefaultOwner(shards)
	}
	var idxs []*core.Index
	p, err := f.buildLoop(uploads, func(items []core.Item, p core.Params) error {
		var berr error
		idxs, berr = core.BuildPartitioned(f.keys, items, p, shards, owner)
		return berr
	})
	if err != nil {
		return nil, err
	}
	f.params = p
	f.built = true

	out := make([]Shard, shards)
	for s := range out {
		out[s] = Shard{Index: idxs[s], EncProfiles: make(map[uint64][]byte)}
	}
	cts, err := f.encryptProfileSlice(uploads)
	if err != nil {
		return nil, err
	}
	for i, u := range uploads {
		out[owner(u.ID)].EncProfiles[u.ID] = cts[i]
	}
	return out, nil
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
		s := owner(it.ID)
		if s < 0 || s >= shards {
			return nil, fmt.Errorf("frontend: owner(%d) = %d out of range [0,%d)", it.ID, s, shards)
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

// DynNode is the per-shard cloud surface sharded dynamic operations
// drive: the bucket store plus the encrypted-profile store. shard.Node
// implementations satisfy it.
type DynNode interface {
	core.BucketStore
	ProfileFetcher
	PutProfiles(profiles map[uint64][]byte) error
	DeleteProfile(id uint64) error
}

// DynSearchSharded fans a dynamic search across all shards concurrently:
// every shard's client searches its own bucket store, the matching
// encrypted profiles are fetched from that shard, and the merged
// candidates are decrypted and distance-ranked. Shards that fail are
// skipped and the result is flagged partial; an error is returned only
// when every shard fails. shards[s] must pair with nodes[s]; a single
// cloud is the one-shard case.
func (f *Frontend) DynSearchSharded(shards []DynShard, nodes []DynNode, targetProfile []float64, k int, excludeID uint64) ([]Match, bool, error) {
	if len(shards) == 0 || len(shards) != len(nodes) {
		return nil, false, fmt.Errorf("frontend: %d shards but %d nodes", len(shards), len(nodes))
	}
	var sp obs.Span
	sp.Start()
	ids, encProfiles, partial, err := f.dynSearchMerged(shards, nodes, f.family.Hash(targetProfile))
	if err != nil {
		return nil, false, err
	}
	vecs, err := f.decryptProfiles(ids, encProfiles)
	if err != nil {
		return nil, false, err
	}
	matches, err := f.rankPlain(targetProfile, ids, vecs, k, excludeID, nil)
	if err != nil {
		return nil, false, err
	}
	sp.Finish(fmet.dynNs)
	if partial {
		fmet.partials.Inc()
	}
	return matches, partial, nil
}

// DynInsertSharded routes a dynamic insertion to the owning shard: the
// shard's client runs the secure insert rounds against that shard's bucket
// store and the encrypted profile is uploaded to the same shard. The
// caller sees the shard's error directly — an unreachable owning shard
// fails the insert (there is no other shard that may hold the user).
func (f *Frontend) DynInsertSharded(shards []DynShard, nodes []DynNode, owner func(uint64) int, id uint64, profile []float64) error {
	s, err := routeShard(shards, nodes, owner, id)
	if err != nil {
		return err
	}
	ct, err := f.EncryptProfile(profile)
	if err != nil {
		return fmt.Errorf("frontend: encrypt profile %d: %w", id, err)
	}
	if err := shards[s].Client.Insert(nodes[s], id, f.family.Hash(profile)); err != nil {
		return fmt.Errorf("frontend: insert %d at shard %d: %w", id, s, err)
	}
	if err := nodes[s].PutProfiles(map[uint64][]byte{id: ct}); err != nil {
		return fmt.Errorf("frontend: upload profile %d to shard %d: %w", id, s, err)
	}
	return nil
}

// DynDeleteSharded routes a secure deletion to the owning shard and
// removes the user's encrypted profile there.
func (f *Frontend) DynDeleteSharded(shards []DynShard, nodes []DynNode, owner func(uint64) int, id uint64, profile []float64) error {
	s, err := routeShard(shards, nodes, owner, id)
	if err != nil {
		return err
	}
	if err := shards[s].Client.Delete(nodes[s], id, f.family.Hash(profile)); err != nil {
		return fmt.Errorf("frontend: delete %d at shard %d: %w", id, s, err)
	}
	if err := nodes[s].DeleteProfile(id); err != nil {
		return fmt.Errorf("frontend: remove profile %d at shard %d: %w", id, s, err)
	}
	return nil
}

// routeShard resolves the shard owning id and validates the pairing.
func routeShard(shards []DynShard, nodes []DynNode, owner func(uint64) int, id uint64) (int, error) {
	if len(shards) == 0 || len(shards) != len(nodes) {
		return 0, fmt.Errorf("frontend: %d shards but %d nodes", len(shards), len(nodes))
	}
	if owner == nil {
		owner = core.DefaultOwner(len(shards))
	}
	s := owner(id)
	if s < 0 || s >= len(shards) {
		return 0, fmt.Errorf("frontend: owner(%d) = %d out of range [0,%d)", id, s, len(shards))
	}
	if shards[s].Client == nil {
		return 0, errors.New("frontend: shard has no dynamic client")
	}
	return s, nil
}
