// Property test for replica-group convergence under random interleavings
// of writes, kills, data-loss restarts, heals, probes and anti-entropy
// repairs. The dynamic scheme re-masks every bucket it touches, so two
// converged replicas hold different bucket BYTES by design; the
// convergence property is therefore stated over what the trusted front
// end can OPEN: after the final heal-probe-repair round, every replica
// must open to byte-identical payloads at every (table, position), hold
// identical encrypted-profile stores, and individually answer direct
// searches for the entire live membership. Failing seeds print the same
// one-line repro the simulation suites use and land in the
// PISD_SIM_FAILURE_FILE artifact.
package pisd_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"pisd/internal/cloud"
	"pisd/internal/core"
	"pisd/internal/dataset"
	"pisd/internal/frontend"
	"pisd/internal/lsh"
	"pisd/internal/shard"
	"pisd/internal/transport"
)

// chaosReplica is a ReplicaNode with a kill switch and a data-loss
// restart: while down, every call fails with a connection error; Restart
// swaps the backing store for a brand-new empty cloud (its version
// reports 0, which is what makes the prober re-admit it as lagging
// instead of current).
type chaosReplica struct {
	mu   sync.Mutex
	node shard.ReplicaNode
	down bool
}

func newChaosReplica() *chaosReplica {
	return &chaosReplica{node: shard.NewLocal(cloud.New())}
}

func (c *chaosReplica) setDown(v bool) {
	c.mu.Lock()
	c.down = v
	c.mu.Unlock()
}

// restart models a crash with disk loss: the replica goes down and its
// next incarnation starts from an empty store.
func (c *chaosReplica) restart() {
	c.mu.Lock()
	c.down = true
	c.node = shard.NewLocal(cloud.New())
	c.mu.Unlock()
}

func (c *chaosReplica) get() (shard.ReplicaNode, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.down {
		return nil, &transport.ConnError{Op: "call", Err: errors.New("replica down")}
	}
	return c.node, nil
}

func (c *chaosReplica) Ping(ctx context.Context) error {
	n, err := c.get()
	if err != nil {
		return err
	}
	return n.Ping(ctx)
}

func (c *chaosReplica) SecRecBatch(ctx context.Context, ts []*core.Trapdoor) ([][]uint64, [][][]byte, error) {
	n, err := c.get()
	if err != nil {
		return nil, nil, err
	}
	return n.SecRecBatch(ctx, ts)
}

func (c *chaosReplica) FetchProfiles(ids []uint64) ([][]byte, error) {
	n, err := c.get()
	if err != nil {
		return nil, err
	}
	return n.FetchProfiles(ids)
}

func (c *chaosReplica) FetchProfilesSparse(ids []uint64) ([][]byte, error) {
	n, err := c.get()
	if err != nil {
		return nil, err
	}
	return n.FetchProfilesSparse(ids)
}

func (c *chaosReplica) PutProfiles(profiles map[uint64][]byte) error {
	n, err := c.get()
	if err != nil {
		return err
	}
	return n.PutProfiles(profiles)
}

func (c *chaosReplica) DeleteProfile(id uint64) error {
	n, err := c.get()
	if err != nil {
		return err
	}
	return n.DeleteProfile(id)
}

func (c *chaosReplica) InstallIndex(idx *core.Index) error {
	n, err := c.get()
	if err != nil {
		return err
	}
	return n.InstallIndex(idx)
}

func (c *chaosReplica) InstallDynIndex(idx *core.DynIndex) error {
	n, err := c.get()
	if err != nil {
		return err
	}
	return n.InstallDynIndex(idx)
}

func (c *chaosReplica) FetchBuckets(refs []core.BucketRef) ([]core.DynBucket, error) {
	n, err := c.get()
	if err != nil {
		return nil, err
	}
	return n.FetchBuckets(refs)
}

func (c *chaosReplica) StoreBuckets(refs []core.BucketRef, buckets []core.DynBucket) error {
	n, err := c.get()
	if err != nil {
		return err
	}
	return n.StoreBuckets(refs, buckets)
}

func (c *chaosReplica) Version(ctx context.Context) (uint64, error) {
	n, err := c.get()
	if err != nil {
		return 0, err
	}
	return n.Version(ctx)
}

func (c *chaosReplica) ApplyVersion(v uint64) error {
	n, err := c.get()
	if err != nil {
		return err
	}
	return n.ApplyVersion(v)
}

func (c *chaosReplica) StoreBucketsVersioned(refs []core.BucketRef, buckets []core.DynBucket, v uint64) error {
	n, err := c.get()
	if err != nil {
		return err
	}
	return n.StoreBucketsVersioned(refs, buckets, v)
}

func (c *chaosReplica) ProfileIDs() ([]uint64, error) {
	n, err := c.get()
	if err != nil {
		return nil, err
	}
	return n.ProfileIDs()
}

var _ shard.ReplicaNode = (*chaosReplica)(nil)

// convWorld is one seeded single-partition replica group under the
// property schedule, with exact membership bookkeeping on the side.
type convWorld struct {
	t        *testing.T
	seed     int64
	f        *frontend.Frontend
	ds       *dataset.Dataset
	shards   []frontend.DynShard
	group    *shard.ReplicaGroup
	nodes    []frontend.DynNode
	serving  *frontend.DynServing
	reps     []*chaosReplica
	prober   *shard.Prober
	repairer *shard.Repairer

	// fresh marks replicas that lost their data in a restart and have not
	// been re-synced by a successful repair yet.
	fresh []bool

	profiles map[uint64][]float64
	live     map[uint64]bool
	deleted  map[uint64]bool
	nextID   uint64
}

func newConvWorld(t *testing.T, seed int64, replicas int) *convWorld {
	t.Helper()
	const users = 40
	f, err := frontend.New(frontend.Config{
		LSH:        lsh.Params{Dim: 48, Tables: 5, Atoms: 2, Width: 0.8, Seed: seed + 9},
		LoadFactor: 0.5,
		ProbeRange: 4,
		MaxLoop:    300,
		MaxRehash:  3,
		Seed:       seed + 9,
		KeySeed:    fmt.Sprintf("conv-%d", seed),
	})
	if err != nil {
		t.Fatal(err)
	}
	ds, err := dataset.Generate(dataset.Config{
		Users: users + 160, Dim: 48, Topics: 8, TopicsPerUser: 2,
		ActiveWords: 12, Noise: 0.02, Seed: seed + 400,
	})
	if err != nil {
		t.Fatal(err)
	}
	uploads := make([]frontend.Upload, users)
	for i := 0; i < users; i++ {
		uploads[i] = frontend.Upload{ID: uint64(i + 1), Profile: ds.Profiles[i], Meta: f.ComputeMeta(ds.Profiles[i])}
	}
	built, err := f.BuildShardedDynamicIndex(uploads, 1, nil)
	if err != nil {
		t.Fatalf("BuildShardedDynamicIndex: %v", err)
	}

	w := &convWorld{
		t: t, seed: seed, f: f, ds: ds, shards: built,
		fresh:    make([]bool, replicas),
		profiles: make(map[uint64][]float64),
		live:     make(map[uint64]bool),
		deleted:  make(map[uint64]bool),
		nextID:   uint64(users + 1),
	}
	members := make([]shard.ReplicaNode, replicas)
	for r := 0; r < replicas; r++ {
		w.reps = append(w.reps, newChaosReplica())
		members[r] = w.reps[r]
	}
	g, err := shard.NewReplicaGroup(0, shard.GroupConfig{}, members...)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.InstallDynIndex(built[0].Index); err != nil {
		t.Fatal(err)
	}
	if err := g.PutProfiles(built[0].EncProfiles); err != nil {
		t.Fatal(err)
	}
	w.group = g
	w.nodes = []frontend.DynNode{g}
	if w.serving, err = f.NewDynServing(built, w.nodes, nil, frontend.ServingConfig{}); err != nil {
		t.Fatal(err)
	}
	w.prober = shard.NewProber(shard.ProberConfig{DemoteAfter: 2, ReadmitAfter: 1}, g)
	repair, err := frontend.NewReplicaRepair(built, 0)
	if err != nil {
		t.Fatal(err)
	}
	w.repairer = shard.NewRepairer(shard.RepairerConfig{},
		func(s int, src, dst shard.ReplicaNode) error { return repair(s, src, dst) }, g)
	for i := 0; i < users; i++ {
		id := uint64(i + 1)
		w.profiles[id] = ds.Profiles[i]
		w.live[id] = true
	}
	return w
}

func (w *convWorld) probe(rounds int) {
	for i := 0; i < rounds; i++ {
		w.prober.ProbeOnce(context.Background())
	}
}

// repairAndMark runs one anti-entropy round and clears the data-loss mark
// on every replica the group now reports current.
func (w *convWorld) repairAndMark() {
	w.repairer.RepairOnce(context.Background())
	for i, st := range w.group.Status() {
		if st.Current {
			w.fresh[i] = false
		}
	}
}

// safeSibling reports whether some replica other than victim can serve
// reads with full data right now: up, current in the group's view, and
// not a data-loss restart awaiting repair. The schedule only downs a
// replica while such a sibling exists, which is exactly the regime the
// replication contract covers (durability is forfeit once every intact
// copy is gone simultaneously).
func (w *convWorld) safeSibling(victim int) bool {
	st := w.group.Status()
	for i, rep := range w.reps {
		rep.mu.Lock()
		up := !rep.down
		rep.mu.Unlock()
		if i != victim && up && st[i].Current && !w.fresh[i] {
			return true
		}
	}
	return false
}

func (w *convWorld) insert() {
	w.t.Helper()
	id := w.nextID
	w.nextID++
	profile := w.ds.Profiles[int(id)%len(w.ds.Profiles)]
	if err := w.serving.Insert(id, profile); err != nil {
		w.t.Fatalf("insert %d: %v", id, err)
	}
	w.profiles[id] = profile
	w.live[id] = true
}

func (w *convWorld) delete(rng *rand.Rand) {
	w.t.Helper()
	if len(w.live) == 0 {
		return
	}
	ids := make([]uint64, 0, len(w.live))
	for id := range w.live {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
	id := ids[rng.Intn(len(ids))]
	if err := w.serving.Delete(id, w.profiles[id]); err != nil {
		w.t.Fatalf("delete %d: %v", id, err)
	}
	delete(w.live, id)
	w.deleted[id] = true
}

// TestReplicaConvergenceProperty drives ~45 random operations per seed —
// writes, kills, restarts, heals, probes, repairs — then forces a final
// heal-probe-repair round and asserts full convergence across replicas.
func TestReplicaConvergenceProperty(t *testing.T) {
	for _, seed := range repSeeds(t) {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Cleanup(func() {
				if t.Failed() {
					recordFailingSeedFor(t, seed, "TestReplicaConvergenceProperty")
				}
			})
			rng := rand.New(rand.NewSource(seed * 131))
			replicas := 2 + rng.Intn(2)
			w := newConvWorld(t, seed, replicas)

			const ops = 45
			for op := 0; op < ops; op++ {
				switch r := rng.Intn(12); {
				case r < 4:
					w.insert()
				case r < 6:
					w.delete(rng)
				case r < 8: // kill or restart a random replica
					victim := rng.Intn(replicas)
					if !w.safeSibling(victim) {
						continue
					}
					if rng.Intn(2) == 0 {
						w.reps[victim].setDown(true)
					} else {
						w.reps[victim].restart()
						w.fresh[victim] = true
						// A restarted replica must be demoted before it
						// serves reads again: its next incarnation holds
						// nothing. Two probe rounds do it (DemoteAfter 2).
						w.probe(2)
					}
				case r < 10: // heal a random down replica
					victim := rng.Intn(replicas)
					w.reps[victim].setDown(false)
					w.probe(1)
				case r < 11:
					w.probe(1)
				default:
					w.repairAndMark()
				}
			}

			// Final round: heal everything, re-admit, repair, converge.
			for _, rep := range w.reps {
				rep.setDown(false)
			}
			w.probe(2)
			w.repairAndMark()
			for i, st := range w.group.Status() {
				if st.Down || !st.Current {
					t.Fatalf("replica %d not current after final repair: %+v", i, st)
				}
			}

			// The convergence property: identical OPENED payloads at every
			// (table, position). Raw bucket bytes differ by design — every
			// repair re-masks — so equality is asserted on what the keys
			// recover, via a forked client so the foreground client's
			// randomness stream is untouched.
			conv, err := w.shards[0].Client.Fork()
			if err != nil {
				t.Fatal(err)
			}
			width := uint64(w.shards[0].Index.Width())
			ref, err := conv.OpenedRange(w.reps[0], 0, width)
			if err != nil {
				t.Fatalf("open replica 0: %v", err)
			}
			if len(ref) == 0 {
				t.Fatal("replica 0 opened to zero buckets")
			}
			for i := 1; i < replicas; i++ {
				got, err := conv.OpenedRange(w.reps[i], 0, width)
				if err != nil {
					t.Fatalf("open replica %d: %v", i, err)
				}
				if len(got) != len(ref) {
					t.Fatalf("replica %d opened %d buckets, replica 0 opened %d", i, len(got), len(ref))
				}
				for j := range ref {
					if !bytes.Equal(ref[j], got[j]) {
						t.Fatalf("replica %d diverges from replica 0 at bucket %d after convergence", i, j)
					}
				}
			}

			// Profile stores must match id-for-id and byte-for-byte.
			refIDs, err := w.reps[0].ProfileIDs()
			if err != nil {
				t.Fatal(err)
			}
			refProfiles, err := w.reps[0].FetchProfiles(refIDs)
			if err != nil {
				t.Fatal(err)
			}
			for i := 1; i < replicas; i++ {
				ids, err := w.reps[i].ProfileIDs()
				if err != nil {
					t.Fatal(err)
				}
				if len(ids) != len(refIDs) {
					t.Fatalf("replica %d holds %d profiles, replica 0 holds %d", i, len(ids), len(refIDs))
				}
				for j := range refIDs {
					if ids[j] != refIDs[j] {
						t.Fatalf("replica %d profile id[%d] = %d, want %d", i, j, ids[j], refIDs[j])
					}
				}
				profs, err := w.reps[i].FetchProfiles(ids)
				if err != nil {
					t.Fatal(err)
				}
				for j := range refProfiles {
					if !bytes.Equal(profs[j], refProfiles[j]) {
						t.Fatalf("replica %d profile %d bytes diverge", i, refIDs[j])
					}
				}
			}

			// And semantically: every replica individually serves the full
			// live membership, with no deleted or unknown ids.
			liveIDs := make([]uint64, 0, len(w.live))
			for id := range w.live {
				liveIDs = append(liveIDs, id)
			}
			sort.Slice(liveIDs, func(a, b int) bool { return liveIDs[a] < liveIDs[b] })
			for i := 0; i < replicas; i++ {
				for _, id := range liveIDs {
					got, err := conv.Search(w.reps[i], w.f.ComputeMeta(w.profiles[id]))
					if err != nil {
						t.Fatalf("replica %d: search for %d: %v", i, id, err)
					}
					found := false
					for _, g := range got {
						if g == id {
							found = true
						}
						if _, known := w.profiles[g]; !known {
							t.Fatalf("replica %d: ghost id %d", i, g)
						}
						if w.deleted[g] {
							t.Fatalf("replica %d: deleted id %d resurfaced", i, g)
						}
					}
					if !found {
						t.Fatalf("replica %d: live user %d unreachable after convergence", i, id)
					}
				}
			}
		})
	}
}
