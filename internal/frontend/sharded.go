package frontend

import (
	"fmt"

	"pisd/internal/core"
)

// Shard is one cloud shard's installable state: the partitioned secure
// index plus the encrypted profiles of the users the shard owns.
type Shard struct {
	Index       *core.Index
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
