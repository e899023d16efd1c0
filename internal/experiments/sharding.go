package experiments

import (
	"context"
	"encoding/binary"
	"fmt"
	"math/rand"
	"time"

	"pisd/internal/cloud"
	"pisd/internal/core"
	"pisd/internal/shard"
)

// ExpSharding measures the sharded cloud tier: index-build wall time and
// fan-out SecRec latency as the same population is spread over 1, 2 and 4
// shards. The partitioned build shares one global cuckoo placement, so the
// per-query candidate set is identical at every shard count — the column
// makes that visible — while per-shard encryption parallelizes the build
// and fan-out splits each query's bucket unmasking across nodes.
func ExpSharding(s Scale) (*Table, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	const (
		tables = 10
		probes = 30
		tau    = 0.8
		ops    = 100
	)
	keys, err := experimentKeys(tables, s.Seed)
	if err != nil {
		return nil, err
	}
	n := s.IndexUsers
	metas := mixedMetas(n, tables, s.Seed)
	items := itemsFrom(metas)
	p := core.Params{
		Tables:     tables,
		Capacity:   core.CapacityFor(n, tau),
		ProbeRange: probes,
		MaxLoop:    5000,
		Seed:       s.Seed,
	}

	// Pre-generate the query trapdoors so the timed section is pure
	// fan-out. Stand-in 256 B profile ciphertexts keep the experiment's
	// memory footprint independent of s.Dim.
	rng := rand.New(rand.NewSource(s.Seed + 77))
	tds := make([]*core.Trapdoor, ops)
	for q := range tds {
		td, err := core.GenTpdr(keys, metas[rng.Intn(len(metas))], p)
		if err != nil {
			return nil, err
		}
		tds[q] = td
	}
	profileCT := func(id uint64) []byte {
		b := make([]byte, 256)
		binary.LittleEndian.PutUint64(b, id)
		return b
	}

	t := &Table{
		ID:    "Sharding",
		Title: fmt.Sprintf("Sharded cloud tier: build and fan-out SecRec cost (n=%d, l=10, d=30, τ=0.8)", n),
		Header: []string{
			"shards", "build (s)", "index size (total)", "fan-out SecRec (µs)", "candidates/query",
		},
	}
	var baseCandidates int = -1
	for _, nShards := range []int{1, 2, 4} {
		buildStart := time.Now()
		idxs, err := core.BuildPartitioned(keys, items, p, nShards, nil)
		if err != nil {
			return nil, fmt.Errorf("sharding S=%d: %w", nShards, err)
		}
		buildSecs := time.Since(buildStart).Seconds()

		owner := core.DefaultOwner(nShards)
		nodes := make([]shard.Node, nShards)
		var indexBytes int
		for sh := range nodes {
			cs := cloud.New()
			cs.SetIndex(idxs[sh])
			indexBytes += idxs[sh].SizeBytes()
			nodes[sh] = shard.NewLocal(cs)
		}
		for _, it := range items {
			node := nodes[owner(it.ID)].(shard.Local)
			node.CS.PutProfile(it.ID, profileCT(it.ID))
		}
		pool, err := shard.NewPool(shard.DefaultConfig(), nodes...)
		if err != nil {
			return nil, err
		}

		candidates := 0
		searchStart := time.Now()
		for _, td := range tds {
			ids, _, partial, err := pool.SecRecBatch(context.Background(), []*core.Trapdoor{td})
			if err != nil {
				return nil, err
			}
			if partial {
				return nil, fmt.Errorf("sharding S=%d: unexpected partial result", nShards)
			}
			candidates += len(ids[0])
		}
		searchMicros := float64(time.Since(searchStart).Microseconds()) / ops
		if baseCandidates < 0 {
			baseCandidates = candidates
		} else if candidates != baseCandidates {
			return nil, fmt.Errorf("sharding S=%d: %d candidates, single-node found %d", nShards, candidates, baseCandidates)
		}

		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", nShards),
			fmt.Sprintf("%.2f", buildSecs),
			humanBytes(float64(indexBytes)),
			fmt.Sprintf("%.0f", searchMicros),
			fmt.Sprintf("%.1f", float64(candidates)/ops),
		})
	}
	t.Notes = append(t.Notes,
		"all shard counts share one global cuckoo placement, so the merged candidate set is identical (the column is checked, not just printed)",
		"each shard stores the full-width table but only its owners' slots are real ciphertext; fan-out unmasks l·(d+1) buckets per shard in parallel",
		"in-process shards share one machine's cores, so the fan-out column shows pure coordination overhead; the win is capacity — a TCP deployment puts each shard's memory and unmasking on its own node",
	)
	return t, nil
}
