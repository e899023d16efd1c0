package frontend

import (
	"context"
	crand "crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"

	"pisd/internal/core"
	"pisd/internal/fof"
	"pisd/internal/lsh"
	"pisd/internal/obs"
)

// FanoutBatchServer is the cloud surface every static discovery drives:
// one fan-out resolving q trapdoors with a single call per shard, partial
// when some shards are down. shard.Pool implements it; a single cloud is
// the one-node pool (shard.NewPool(cfg, shard.NewLocal(cs)) in process,
// shard.NewRemote(addr) over TCP).
type FanoutBatchServer interface {
	SecRecBatch(ctx context.Context, ts []*core.Trapdoor) (ids [][]uint64, encProfiles [][][]byte, partial bool, err error)
}

// probe is one trapdoor a discovery sends. Its metadata is meta, or the
// hash of profile when meta is nil; target is the index of the target the
// answer serves, -1 for a decoy whose answer is dropped unread.
type probe struct {
	profile []float64
	meta    lsh.Metadata
	target  int
}

// Discover runs the privacy-preserving discovery flow for one target
// profile: trapdoor → SecRecBatch at the cloud → decrypt matches → exact
// distance ranking → top-k recommendations (GetRec). excludeID removes
// the target's own identifier from the results (0 keeps everything).
// partial reports that some shards were unreachable and the matches cover
// only the surviving shards' users. It is DiscoverBatch with one target.
func (f *Frontend) Discover(ctx context.Context, b FanoutBatchServer, targetProfile []float64, k int, excludeID uint64) ([]Match, bool, error) {
	out, partial, err := f.DiscoverBatch(ctx, b, [][]float64{targetProfile}, k, []uint64{excludeID})
	if err != nil {
		return nil, false, err
	}
	return out[0], partial, nil
}

// DiscoverBatch runs the discovery flow for many target profiles in one
// cloud exchange: parallel trapdoor generation → a single SecRecBatch
// fan-out → decrypt → per-query ranking. Result q is byte-identical to
// Discover(ctx, b, targets[q], k, excludeIDs[q]) over the same healthy
// shards. excludeIDs may be nil, or aligned with targets (0 = no
// exclusion). A trace carried by ctx (obs.WithTrace) records the
// trapdoor, fanout, decrypt and rank stages.
func (f *Frontend) DiscoverBatch(ctx context.Context, b FanoutBatchServer, targets [][]float64, k int, excludeIDs []uint64) ([][]Match, bool, error) {
	probes := make([]probe, len(targets))
	for q, p := range targets {
		probes[q] = probe{profile: p, target: q}
	}
	return f.discover(ctx, b, targets, k, excludeIDs, probes)
}

// discover is the one static discovery pipeline: trapdoors for every
// probe → one SecRecBatch → each target's candidates (the union of its
// probes' answers, first occurrence kept) → decrypt → rank.
func (f *Frontend) discover(ctx context.Context, b FanoutBatchServer, targets [][]float64, k int, excludeIDs []uint64, probes []probe) ([][]Match, bool, error) {
	if !f.built {
		return nil, false, errors.New("frontend: no index built yet")
	}
	if len(targets) == 0 {
		return nil, false, errors.New("frontend: no targets")
	}
	if excludeIDs != nil && len(excludeIDs) != len(targets) {
		return nil, false, fmt.Errorf("frontend: %d targets but %d exclude ids", len(targets), len(excludeIDs))
	}
	var sp obs.Span
	sp.StartTraced(obs.TraceFrom(ctx))
	tds := make([]*core.Trapdoor, len(probes))
	err := parallelFor(len(probes), func(i int) error {
		meta := probes[i].meta
		if meta == nil {
			meta = f.family.Hash(probes[i].profile)
		}
		td, err := core.GenTpdr(f.keys, meta, f.params)
		if err != nil {
			return fmt.Errorf("frontend: trapdoor %d: %w", i, err)
		}
		tds[i] = td
		return nil
	})
	if err != nil {
		return nil, false, err
	}
	sp.Mark("trapdoor", fmet.trapdoorNs)
	ids, encProfiles, partial, err := b.SecRecBatch(ctx, tds)
	if err != nil {
		return nil, false, fmt.Errorf("frontend: discovery request: %w", err)
	}
	if len(ids) != len(tds) || len(encProfiles) != len(tds) {
		return nil, false, fmt.Errorf("frontend: batch of %d trapdoors answered with %d results", len(tds), len(ids))
	}
	sp.Mark("fanout", fmet.fanoutNs)

	candIDs := make([][]uint64, len(targets))
	candEnc := make([][][]byte, len(targets))
	seen := make([]map[uint64]bool, len(targets))
	for i, p := range probes {
		q := p.target
		if q < 0 {
			continue
		}
		if seen[q] == nil {
			seen[q] = make(map[uint64]bool, len(ids[i]))
		}
		for j, id := range ids[i] {
			if !seen[q][id] {
				seen[q][id] = true
				candIDs[q] = append(candIDs[q], id)
				candEnc[q] = append(candEnc[q], encProfiles[i][j])
			}
		}
	}
	dists := make([][]float64, len(targets))
	skip := make([][]bool, len(targets))
	err = parallelFor(len(targets), func(q int) error {
		vecs, err := f.decryptProfiles(candIDs[q], candEnc[q])
		if err != nil {
			return err
		}
		var exclude uint64
		if excludeIDs != nil {
			exclude = excludeIDs[q]
		}
		dists[q], skip[q] = score(targets[q], candIDs[q], vecs, exclude)
		return nil
	})
	if err != nil {
		return nil, false, err
	}
	sp.Mark("decrypt", fmet.decryptNs)
	out := make([][]Match, len(targets))
	for q := range out {
		out[q] = topMatches(candIDs[q], dists[q], skip[q], k)
	}
	sp.Mark("rank", fmet.rankNs)

	total, count := fmet.discoverNs, fmet.discoveries
	if len(targets) > 1 {
		total, count = fmet.batchNs, fmet.batches
	}
	sp.Finish(total)
	count.Inc()
	if partial {
		fmet.partials.Inc()
	}
	return out, partial, nil
}

// DiscoverFoF is Discover followed by friend-of-friend boosting: among the
// distance-ranked candidates, friends-of-friends of the target user are
// promoted (Sec. III-C).
func (f *Frontend) DiscoverFoF(ctx context.Context, b FanoutBatchServer, graph *fof.Graph, targetID uint64, targetProfile []float64, k int) ([]Match, bool, error) {
	matches, partial, err := f.Discover(ctx, b, targetProfile, k*2, targetID)
	if err != nil {
		return nil, false, err
	}
	ids := make([]uint64, len(matches))
	byID := make(map[uint64]Match, len(matches))
	for i, m := range matches {
		ids[i] = m.ID
		byID[m.ID] = m
	}
	boosted := graph.Boost(targetID, ids)
	if len(boosted) > k {
		boosted = boosted[:k]
	}
	out := make([]Match, len(boosted))
	for i, id := range boosted {
		out[i] = byID[id]
	}
	return out, partial, nil
}

// DiscoverMultiProbe is Discover with query-directed multi-probe recall
// (Lv et al., the paper's [19]): besides the exact trapdoor it sends
// trapdoors for the `variants` cheapest neighbouring-bucket metadata
// vectors in the same batch, and ranks the union of the recovered
// candidates (first occurrence kept). Each variant costs one more
// constant-bandwidth trapdoor, buying recall — the same accuracy/bandwidth
// dial as raising d or l (Fig. 5(c)), but tunable per query without
// rebuilding the index. variants = 0 is exactly Discover.
func (f *Frontend) DiscoverMultiProbe(ctx context.Context, b FanoutBatchServer, targetProfile []float64, k int, excludeID uint64, variants int) ([]Match, bool, error) {
	if variants < 0 {
		return nil, false, errors.New("frontend: negative variant count")
	}
	probes := []probe{{profile: targetProfile}}
	for _, pv := range f.family.ProbeSequence(targetProfile, variants) {
		probes = append(probes, probe{meta: pv.Meta})
	}
	out, partial, err := f.discover(ctx, b, [][]float64{targetProfile}, k, []uint64{excludeID}, probes)
	if err != nil {
		return nil, false, err
	}
	return out[0], partial, nil
}

// DiscoverWithDecoys implements the paper's batched-discovery mitigation
// (Sec. IV remark): deterministic trapdoors leak the similarity-search
// pattern, and the paper suggests that "to mitigate such statistical
// information leakage, one trick is to batch the social discovery requests
// for multiple randomly selected target users at once". The real
// targets' trapdoors go out in one batch with decoy trapdoors for random
// metadata, in shuffled order; decoy answers are dropped unread. The cloud
// observes a larger anonymity set per round at the cost of proportionally
// more bandwidth (exactly the trade-off the paper names).
//
// rng drives the decoys and the shuffle; nil means a fresh seed from
// crypto/rand on every call, so repeated calls never send the same decoys.
func (f *Frontend) DiscoverWithDecoys(ctx context.Context, b FanoutBatchServer, targets [][]float64, k, decoys int, rng *rand.Rand) ([][]Match, bool, error) {
	if !f.built {
		return nil, false, errors.New("frontend: no index built yet")
	}
	if decoys < 0 {
		return nil, false, errors.New("frontend: negative decoy count")
	}
	if rng == nil {
		var seed [8]byte
		if _, err := crand.Read(seed[:]); err != nil {
			return nil, false, fmt.Errorf("frontend: decoy seed: %w", err)
		}
		rng = rand.New(rand.NewSource(int64(binary.LittleEndian.Uint64(seed[:]))))
	}
	probes := make([]probe, 0, len(targets)+decoys)
	for q, p := range targets {
		probes = append(probes, probe{profile: p, target: q})
	}
	for d := 0; d < decoys; d++ {
		meta := make(lsh.Metadata, f.params.Tables)
		for j := range meta {
			meta[j] = rng.Uint64()
		}
		probes = append(probes, probe{meta: meta, target: -1})
	}
	// Shuffle so the cloud cannot separate targets from decoys by order.
	rng.Shuffle(len(probes), func(i, j int) { probes[i], probes[j] = probes[j], probes[i] })
	return f.discover(ctx, b, targets, k, nil, probes)
}

// Trapdoors issues one discovery trapdoor per target profile, hashing and
// PRF evaluation fanned out across CPUs (lsh.Family.Hash is stateless and
// the PRF pools its scratch, so the fan-out is safe). Trapdoor generation
// is deterministic, so the result is identical to calling Trapdoor per
// profile.
func (f *Frontend) Trapdoors(profiles [][]float64) ([]*core.Trapdoor, error) {
	tds := make([]*core.Trapdoor, len(profiles))
	err := parallelFor(len(profiles), func(i int) error {
		td, err := f.Trapdoor(profiles[i])
		if err != nil {
			return fmt.Errorf("frontend: trapdoor %d: %w", i, err)
		}
		tds[i] = td
		return nil
	})
	if err != nil {
		return nil, err
	}
	return tds, nil
}
