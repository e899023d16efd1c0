// Chaos-differential simulation of the replicated self-healing shard
// fleet: every partition is served by a replica group over real transport
// servers behind faultnet links, and the suite kills, partitions and
// heals replicas mid-run — including mid-churn — while checking every
// answer against the plaintext oracle. The replication contract under
// test is strictly stronger than the sharded baseline's: as long as at
// least one replica per group is alive, results must be COMPLETE and
// slot-exact against the full-population oracle — no healthy-subset
// masking, no partial flags. A dead replica is a sibling's problem, not
// the caller's.
//
// Per seed, five phases:
//
//	A. Scripted replica kills in the static world: each replica index is
//	   killed fleet-wide (pre- and post-demotion) and every discovery
//	   must stay complete and oracle-exact; failover/demotion/readmit
//	   counters must move accordingly.
//	B. Random link chaos: concurrent workers under the seeded faultnet
//	   schedule; completed results must be oracle-exact (or match a
//	   surviving-partition subset in the rare case every replica of a
//	   group faulted at once), failures must be typed transport faults.
//	C. Whole-group loss: killing every replica of one group degrades to
//	   a flagged partial over the survivors; killing everything is an
//	   error; healing restores exact complete results.
//	D. Dynamic churn with mid-churn kills: inserts/deletes/searches run
//	   while first one replica of every group is killed, repaired after
//	   healing, then the OTHER replica is killed — searches served by
//	   the repaired replica must stay exact, which is the differential
//	   proof that anti-entropy repair restored the full logical state.
//	   Ends with per-replica verification: every replica individually
//	   answers direct searches for the full live set and mirrors the
//	   profile store. Then a rebalance: a brand-new replica joins a
//	   group and is migrated online under concurrent churn.
//	E. Final convergence in the static world: faults off, everything
//	   healed — complete, oracle-exact answers.
//
// A failing seed is printed as a one-line repro and appended to the
// PISD_SIM_FAILURE_FILE artifact, like the base simulation suite.
package pisd_test

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"sync"
	"testing"
	"time"

	"pisd/internal/cloud"
	"pisd/internal/dataset"
	"pisd/internal/faultnet"
	"pisd/internal/frontend"
	"pisd/internal/lsh"
	"pisd/internal/obs"
	"pisd/internal/shard"
	"pisd/internal/transport"
	"pisd/internal/vec"
)

// repSeeds is the replication suite's seed set: PISD_SIM_SEEDS when set,
// otherwise seeds 1-5 (the CI gate).
func repSeeds(t *testing.T) []int64 {
	if os.Getenv("PISD_SIM_SEEDS") != "" {
		return simSeeds(t)
	}
	return []int64{1, 2, 3, 4, 5}
}

func TestSimulationReplicated(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation suite")
	}
	for _, seed := range repSeeds(t) {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Cleanup(func() {
				if t.Failed() {
					recordFailingSeedFor(t, seed, "TestSimulationReplicated")
				}
			})
			p := deriveRepParams(seed)
			t.Logf("seed %d: users=%d partitions=%d replicas=%d k=%d plan=%+v",
				seed, p.users, p.partitions, p.replicas, p.k, p.plan)

			w := newRepWorld(t, p)
			runReplicaKillPhase(t, w)
			runReplicaChaosPhase(t, w)
			runGroupLossPhase(t, w)
			runReplicatedChurnPhase(t, p)
			runReplicaConvergencePhase(t, w)
		})
	}
}

// repParams is everything one replicated world derives from its seed.
type repParams struct {
	seed       int64
	users      int
	partitions int
	replicas   int
	k          int
	plan       faultnet.Plan
}

func deriveRepParams(seed int64) repParams {
	rng := rand.New(rand.NewSource(seed * 31))
	return repParams{
		seed:       seed,
		users:      100 + rng.Intn(60),
		partitions: 2 + rng.Intn(2),
		replicas:   2 + rng.Intn(2),
		k:          4 + rng.Intn(4),
		plan: faultnet.Plan{
			Seed:           seed,
			DialFailProb:   0.02,
			ReadFaultBytes: 8 << 10,
			ReadLatency:    2 * time.Millisecond,
			SlowReadBytes:  48,
			StallDelay:     250 * time.Millisecond,
			DropProb:       0.008 + 0.015*rng.Float64(),
			TruncateProb:   0.004 + 0.008*rng.Float64(),
			ResetProb:      0.004 + 0.008*rng.Float64(),
		},
	}
}

func repClientPeer(s, r int) string { return fmt.Sprintf("rep%d-%d", s, r) }
func repServerPeer(s, r int) string { return fmt.Sprintf("srv-rep%d-%d", s, r) }

// repWorld is one seeded replicated static deployment: partitions×replicas
// real transport servers, each replica behind its own faultnet peer pair,
// grouped into failover replica groups behind the fan-out pool.
type repWorld struct {
	t      *testing.T
	p      repParams
	net    *faultnet.Network
	f      *frontend.Frontend
	ds     *dataset.Dataset
	oracle *frontend.Oracle
	pool   *shard.Pool
	groups []*shard.ReplicaGroup
	prober *shard.Prober
	reg    *obs.Registry
}

func newRepWorld(t *testing.T, p repParams) *repWorld {
	t.Helper()
	fn := faultnet.New(p.plan)
	fn.SetEnabled(false)

	f, err := frontend.New(frontend.Config{
		LSH:        lsh.Params{Dim: 64, Tables: 6, Atoms: 2, Width: 0.8, Seed: p.seed},
		LoadFactor: 0.8,
		ProbeRange: 5,
		MaxLoop:    300,
		MaxRehash:  3,
		Seed:       p.seed,
		KeySeed:    fmt.Sprintf("sim-rep-%d", p.seed),
	})
	if err != nil {
		t.Fatal(err)
	}
	ds, err := dataset.Generate(dataset.Config{
		Users: p.users, Dim: 64, Topics: 10, TopicsPerUser: 2,
		ActiveWords: 16, Noise: 0.02, Seed: p.seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	uploads := make([]frontend.Upload, p.users)
	for i, prof := range ds.Profiles {
		uploads[i] = frontend.Upload{ID: uint64(i + 1), Profile: prof, Meta: f.ComputeMeta(prof)}
	}
	built, err := f.BuildShardedIndex(uploads, p.partitions, nil)
	if err != nil {
		t.Fatalf("BuildShardedIndex: %v", err)
	}
	oracle, err := f.BuildOracle(uploads)
	if err != nil {
		t.Fatalf("BuildOracle: %v", err)
	}

	w := &repWorld{t: t, p: p, net: fn, f: f, ds: ds, oracle: oracle, reg: obs.NewRegistry()}
	nodes := make([]shard.Node, p.partitions)
	for s := 0; s < p.partitions; s++ {
		members := make([]shard.ReplicaNode, p.replicas)
		for r := 0; r < p.replicas; r++ {
			members[r] = newRepServer(t, fn, repServerPeer(s, r), repClientPeer(s, r))
		}
		g, err := shard.NewReplicaGroup(s, shard.GroupConfig{}, members...)
		if err != nil {
			t.Fatal(err)
		}
		g.SetRegistry(w.reg)
		w.groups = append(w.groups, g)
		nodes[s] = g
	}
	pool, err := shard.NewPool(shard.Config{Timeout: 150 * time.Millisecond, Retries: 3}, nodes...)
	if err != nil {
		t.Fatal(err)
	}
	pool.SetRegistry(w.reg)
	w.pool = pool
	w.prober = shard.NewProber(shard.ProberConfig{
		Timeout: 200 * time.Millisecond, DemoteAfter: 2, ReadmitAfter: 1,
	}, w.groups...)
	for s, sh := range built {
		if err := pool.InstallShard(s, sh.Index, sh.EncProfiles); err != nil {
			t.Fatalf("InstallShard(%d): %v", s, err)
		}
	}
	return w
}

// newRepServer brings up one replica: a transport server over a fresh
// cloud store, listening through the faultnet server peer, dialed through
// the faultnet client peer.
func newRepServer(t *testing.T, fn *faultnet.Network, serverPeer, clientPeer string) *shard.Remote {
	t.Helper()
	srv := transport.NewServer(cloud.New())
	ln, err := netListen(t)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Serve(fn.WrapListener(serverPeer, ln)); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	remote := shard.NewRemoteDialer(ln.Addr().String(), fn.Dialer(clientPeer))
	remote.SetTimeout(500 * time.Millisecond)
	t.Cleanup(func() { remote.Close() })
	return remote
}

// killReplica partitions replica r of group s on both sides of its link.
func (w *repWorld) killReplica(s, r int) {
	w.net.Partition(repClientPeer(s, r))
	w.net.Partition(repServerPeer(s, r))
}

func (w *repWorld) healReplica(s, r int) {
	w.net.Heal(repClientPeer(s, r))
	w.net.Heal(repServerPeer(s, r))
}

func (w *repWorld) probe(rounds int) {
	for i := 0; i < rounds; i++ {
		w.prober.ProbeOnce(context.Background())
	}
}

// exactQuery requires one discovery to come back complete and slot-exact
// against the full-population oracle — the replicated contract whenever
// at least one replica per group is alive.
func (w *repWorld) exactQuery(qi int) error {
	target := w.ds.Profiles[qi]
	exclude := uint64(qi + 1)
	got, partial, err := w.f.Discover(context.Background(), w.pool, target, w.p.k, exclude)
	if err != nil {
		return fmt.Errorf("target %d: %w", qi+1, err)
	}
	if partial {
		return fmt.Errorf("target %d: flagged partial with a live replica in every group", qi+1)
	}
	if cerr := frontend.EqualMatches(got, w.oracle.Discover(target, w.p.k, exclude)); cerr != nil {
		return fmt.Errorf("target %d: %w", qi+1, cerr)
	}
	return nil
}

// partialMasks enumerates every strict non-empty subset of partitions.
func (w *repWorld) partialMasks() []int {
	full := 1<<w.p.partitions - 1
	masks := make([]int, 0, full-1)
	for m := 1; m < full; m++ {
		masks = append(masks, m)
	}
	return masks
}

func (w *repWorld) aliveFn(mask int) func(uint64) bool {
	parts := uint64(w.p.partitions)
	return func(id uint64) bool { return mask&(1<<(id%parts)) != 0 }
}

// checkQuery validates one result under random chaos: complete results
// match the full oracle; partial results (possible only when every
// replica of some group faulted at once) must match some strict
// surviving-partition subset.
func (w *repWorld) checkQuery(target []float64, exclude uint64, got []frontend.Match, partial bool) error {
	if !partial {
		return frontend.EqualMatches(got, w.oracle.Discover(target, w.p.k, exclude))
	}
	for _, mask := range w.partialMasks() {
		if frontend.EqualMatches(got, w.oracle.DiscoverOwned(target, w.p.k, exclude, w.aliveFn(mask))) == nil {
			return nil
		}
	}
	return fmt.Errorf("partial result matches no surviving-partition subset: %v", got)
}

// runReplicaKillPhase kills each replica index fleet-wide in turn and
// requires every discovery to stay complete and oracle-exact, before and
// after the prober demotes the corpses; healing re-admits them.
func runReplicaKillPhase(t *testing.T, w *repWorld) {
	rng := rand.New(rand.NewSource(w.p.seed*211 + 1))
	for r := 0; r < w.p.replicas; r++ {
		for s := range w.groups {
			w.killReplica(s, r)
		}
		failovers0 := counters(w.reg)["replica.failovers"]
		// Pre-demotion: the dead replica is still a read candidate, so
		// failover is what keeps these complete.
		for i := 0; i < 3; i++ {
			if err := w.exactQuery(rng.Intn(w.p.users)); err != nil {
				t.Fatalf("replica %d killed (pre-demotion), query %d: %v", r, i, err)
			}
		}
		if r == 0 {
			// Replica 0 is every group's first read choice, so killing it
			// provably exercises the failover path.
			if d := counters(w.reg)["replica.failovers"] - failovers0; d <= 0 {
				t.Fatalf("replica 0 killed but replica.failovers did not advance (delta %d)", d)
			}
		}
		demotions0 := counters(w.reg)["replica.demotions"]
		w.probe(2)
		if d := counters(w.reg)["replica.demotions"] - demotions0; d != int64(w.p.partitions) {
			t.Fatalf("replica %d killed: %d demotions after 2 probe rounds, want %d",
				r, d, w.p.partitions)
		}
		for i := 0; i < 3; i++ {
			if err := w.exactQuery(rng.Intn(w.p.users)); err != nil {
				t.Fatalf("replica %d killed (post-demotion), query %d: %v", r, i, err)
			}
		}
		// One batch through the same degraded fleet.
		targets := [][]float64{w.ds.Profiles[0], w.ds.Profiles[1], w.ds.Profiles[2]}
		got, partial, err := w.f.DiscoverBatch(context.Background(), w.pool, targets, w.p.k, nil)
		if err != nil || partial {
			t.Fatalf("replica %d killed: batch partial=%v err=%v", r, partial, err)
		}
		for q, target := range targets {
			if cerr := frontend.EqualMatches(got[q], w.oracle.Discover(target, w.p.k, 0)); cerr != nil {
				t.Fatalf("replica %d killed: batch query %d: %v", r, q, cerr)
			}
		}

		readmits0 := counters(w.reg)["replica.readmits"]
		for s := range w.groups {
			w.healReplica(s, r)
		}
		w.probe(1)
		if d := counters(w.reg)["replica.readmits"] - readmits0; d != int64(w.p.partitions) {
			t.Fatalf("replica %d healed: %d readmits after a probe round, want %d",
				r, d, w.p.partitions)
		}
		for s, g := range w.groups {
			st := g.Status()[r]
			if st.Down || !st.Current {
				t.Fatalf("group %d replica %d after heal+probe: %+v, want current", s, r, st)
			}
		}
		if err := w.exactQuery(rng.Intn(w.p.users)); err != nil {
			t.Fatalf("replica %d healed: %v", r, err)
		}
	}
}

// runReplicaChaosPhase drives concurrent discoveries under the seeded
// random fault schedule across every replica link.
func runReplicaChaosPhase(t *testing.T, w *repWorld) {
	w.net.SetEnabled(true)
	defer w.net.SetEnabled(false)

	const workers, queriesPer = 3, 6
	ctx := context.Background()
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	completed := make([]int, workers)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(w.p.seed*300 + int64(g)))
			for i := 0; i < queriesPer; i++ {
				qi := rng.Intn(w.p.users)
				target := w.ds.Profiles[qi]
				exclude := uint64(qi + 1)
				got, partial, err := w.f.Discover(ctx, w.pool, target, w.p.k, exclude)
				if err != nil {
					if !isTransportFault(err) {
						errs <- fmt.Errorf("worker %d query %d: non-transport failure %T: %w", g, i, err, err)
						return
					}
					continue
				}
				completed[g]++
				if cerr := w.checkQuery(target, exclude, got, partial); cerr != nil {
					errs <- fmt.Errorf("worker %d query %d (target %d, partial=%v): %w", g, i, qi+1, partial, cerr)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	total := 0
	for _, c := range completed {
		total += c
	}
	t.Logf("replica chaos phase: %d/%d requests completed and verified", total, workers*queriesPer)
	if total == 0 {
		t.Fatal("no request completed under faults; the plan is too hostile to verify anything")
	}
}

// runGroupLossPhase checks the degradation ladder: one whole group lost
// is a flagged partial over the survivors, everything lost is an error,
// healing restores exact completeness.
func runGroupLossPhase(t *testing.T, w *repWorld) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(w.p.seed*400 + 9))
	victim := int(w.p.seed) % w.p.partitions

	for r := 0; r < w.p.replicas; r++ {
		w.killReplica(victim, r)
	}
	w.probe(2)
	alive := w.aliveFn((1<<w.p.partitions - 1) &^ (1 << victim))
	for i := 0; i < 3; i++ {
		qi := rng.Intn(w.p.users)
		target := w.ds.Profiles[qi]
		got, partial, err := w.f.Discover(ctx, w.pool, target, w.p.k, 0)
		if err != nil {
			t.Fatalf("group %d lost, query %d: %v", victim, i, err)
		}
		if !partial {
			t.Fatalf("group %d lost but result not flagged partial", victim)
		}
		if cerr := frontend.EqualMatches(got, w.oracle.DiscoverOwned(target, w.p.k, 0, alive)); cerr != nil {
			t.Fatalf("group %d lost, query %d: %v", victim, i, cerr)
		}
	}

	for s := 0; s < w.p.partitions; s++ {
		for r := 0; r < w.p.replicas; r++ {
			w.killReplica(s, r)
		}
	}
	if _, _, err := w.f.Discover(ctx, w.pool, w.ds.Profiles[0], w.p.k, 0); err == nil {
		t.Fatal("every replica of every group killed yet discovery succeeded")
	} else if !isTransportFault(err) {
		t.Fatalf("all-replicas-down error is %T (%v), want a transport fault", err, err)
	}

	for s := 0; s < w.p.partitions; s++ {
		for r := 0; r < w.p.replicas; r++ {
			w.healReplica(s, r)
		}
	}
	w.probe(1)
	if err := w.exactQuery(1); err != nil {
		t.Fatalf("after healing the fleet: %v", err)
	}
}

// runReplicaConvergencePhase re-validates the static world at the end:
// faults off, fleet healed, complete oracle-exact answers.
func runReplicaConvergencePhase(t *testing.T, w *repWorld) {
	w.probe(1)
	rng := rand.New(rand.NewSource(w.p.seed*7 + 2))
	for i := 0; i < 5; i++ {
		if err := w.exactQuery(rng.Intn(w.p.users)); err != nil {
			t.Fatalf("convergence query %d: %v", i, err)
		}
	}
	if lag := w.reg.Snapshot().Gauges["replica.lag"]; lag != 0 {
		t.Fatalf("replica.lag = %d at convergence, want 0", lag)
	}
}

// ---- dynamic replicated world ---------------------------------------

func repDynClientPeer(s, r int) string { return fmt.Sprintf("dynrep%d-%d", s, r) }
func repDynServerPeer(s, r int) string { return fmt.Sprintf("srv-dynrep%d-%d", s, r) }

// repDynWorld is one seeded replicated dynamic deployment. Unlike the
// base dynWorld there is no "uncertain membership": scripted kills never
// fail an operation while a sibling replica is alive, so every op must
// succeed and membership stays exact throughout.
type repDynWorld struct {
	t        *testing.T
	p        repParams
	net      *faultnet.Network
	f        *frontend.Frontend
	ds       *dataset.Dataset
	shards   []frontend.DynShard
	groups   []*shard.ReplicaGroup
	nodes    []frontend.DynNode
	prober   *shard.Prober
	repairer *shard.Repairer
	reg      *obs.Registry
	owner    func(uint64) int
	// serving runs every insert and delete (uncached).
	serving *frontend.DynServing

	profiles map[uint64][]float64
	live     map[uint64]bool
	deleted  map[uint64]bool
	nextID   uint64
}

func newRepDynWorld(t *testing.T, p repParams) *repDynWorld {
	t.Helper()
	fn := faultnet.New(p.plan)
	fn.SetEnabled(false)

	users := 50 + int(p.seed%3)*10
	f, err := frontend.New(frontend.Config{
		LSH:        lsh.Params{Dim: 64, Tables: 5, Atoms: 2, Width: 0.8, Seed: p.seed + 2},
		LoadFactor: 0.6, // headroom: churn inserts beyond the initial set
		ProbeRange: 4,
		MaxLoop:    300,
		MaxRehash:  3,
		Seed:       p.seed + 2,
		KeySeed:    fmt.Sprintf("sim-dynrep-%d", p.seed),
	})
	if err != nil {
		t.Fatal(err)
	}
	ds, err := dataset.Generate(dataset.Config{
		Users: users + 200, Dim: 64, Topics: 8, TopicsPerUser: 2,
		ActiveWords: 16, Noise: 0.02, Seed: p.seed + 300,
	})
	if err != nil {
		t.Fatal(err)
	}
	uploads := make([]frontend.Upload, users)
	for i := 0; i < users; i++ {
		uploads[i] = frontend.Upload{ID: uint64(i + 1), Profile: ds.Profiles[i], Meta: f.ComputeMeta(ds.Profiles[i])}
	}
	built, err := f.BuildShardedDynamicIndex(uploads, p.partitions, nil)
	if err != nil {
		t.Fatalf("BuildShardedDynamicIndex: %v", err)
	}

	w := &repDynWorld{
		t: t, p: p, net: fn, f: f, ds: ds,
		shards:   built,
		reg:      obs.NewRegistry(),
		owner:    func(id uint64) int { return int(id % uint64(p.partitions)) },
		profiles: make(map[uint64][]float64),
		live:     make(map[uint64]bool),
		deleted:  make(map[uint64]bool),
		nextID:   uint64(users + 1),
	}
	for i := 0; i < users; i++ {
		id := uint64(i + 1)
		w.profiles[id] = ds.Profiles[i]
		w.live[id] = true
	}

	w.nodes = make([]frontend.DynNode, p.partitions)
	for s := 0; s < p.partitions; s++ {
		members := make([]shard.ReplicaNode, p.replicas)
		for r := 0; r < p.replicas; r++ {
			members[r] = newRepServer(t, fn, repDynServerPeer(s, r), repDynClientPeer(s, r))
		}
		g, err := shard.NewReplicaGroup(s, shard.GroupConfig{}, members...)
		if err != nil {
			t.Fatal(err)
		}
		g.SetRegistry(w.reg)
		if err := g.InstallDynIndex(built[s].Index); err != nil {
			t.Fatalf("InstallDynIndex(%d): %v", s, err)
		}
		if err := g.PutProfiles(built[s].EncProfiles); err != nil {
			t.Fatalf("PutProfiles(%d): %v", s, err)
		}
		w.groups = append(w.groups, g)
		w.nodes[s] = g
	}
	w.prober = shard.NewProber(shard.ProberConfig{
		Timeout: 200 * time.Millisecond, DemoteAfter: 2, ReadmitAfter: 1,
	}, w.groups...)
	repair, err := frontend.NewReplicaRepair(w.shards, 16)
	if err != nil {
		t.Fatal(err)
	}
	w.repairer = shard.NewRepairer(shard.RepairerConfig{},
		func(g int, src, dst shard.ReplicaNode) error { return repair(g, src, dst) },
		w.groups...)
	if w.serving, err = f.NewDynServing(w.shards, w.nodes, w.owner, frontend.ServingConfig{}); err != nil {
		t.Fatal(err)
	}
	return w
}

func (w *repDynWorld) killReplica(s, r int) {
	w.net.Partition(repDynClientPeer(s, r))
	w.net.Partition(repDynServerPeer(s, r))
}

func (w *repDynWorld) healReplica(s, r int) {
	w.net.Heal(repDynClientPeer(s, r))
	w.net.Heal(repDynServerPeer(s, r))
}

func (w *repDynWorld) probe(rounds int) {
	for i := 0; i < rounds; i++ {
		w.prober.ProbeOnce(context.Background())
	}
}

func (w *repDynWorld) bigK() int { return len(w.profiles) + 32 }

// checkSearch requires an exact dynamic result: complete (never partial
// while a replica per group lives), no ghosts, exact distances, sorted,
// and — when wantID is live — reachable.
func (w *repDynWorld) checkSearch(target []float64, got []frontend.Match, partial bool, wantID uint64) error {
	if partial {
		return fmt.Errorf("partial result with a live replica in every group")
	}
	for i, m := range got {
		prof, known := w.profiles[m.ID]
		if !known {
			return fmt.Errorf("match %d: id %d was never inserted (cross-query leak?)", i, m.ID)
		}
		if w.deleted[m.ID] {
			return fmt.Errorf("match %d: id %d was deleted yet resurfaced", i, m.ID)
		}
		if want := vec.Distance(target, prof); m.Distance != want {
			return fmt.Errorf("match %d: id %d distance %v, want exactly %v", i, m.ID, m.Distance, want)
		}
		if i > 0 && got[i-1].Distance > m.Distance {
			return fmt.Errorf("matches not sorted at %d", i)
		}
	}
	if wantID != 0 && w.live[wantID] {
		for _, m := range got {
			if m.ID == wantID {
				return nil
			}
		}
		return fmt.Errorf("live user %d unreachable via its own profile", wantID)
	}
	return nil
}

// churn runs n mixed operations through the replica groups. Every
// operation must succeed exactly — kills are absorbed by siblings.
func (w *repDynWorld) churn(rng *rand.Rand, n int) {
	w.t.Helper()
	for op := 0; op < n; op++ {
		switch r := rng.Intn(10); {
		case r < 4:
			id := w.nextID
			w.nextID++
			profile := w.ds.Profiles[int(id)%len(w.ds.Profiles)]
			if err := w.serving.Insert(id, profile); err != nil {
				w.t.Fatalf("churn op %d: insert %d: %v", op, id, err)
			}
			w.profiles[id] = profile
			w.live[id] = true
		case r < 6:
			id := w.pickLive(rng)
			if id == 0 {
				continue
			}
			if err := w.serving.Delete(id, w.profiles[id]); err != nil {
				w.t.Fatalf("churn op %d: delete %d: %v", op, id, err)
			}
			delete(w.live, id)
			w.deleted[id] = true
		default:
			var wantID uint64
			var target []float64
			if id := w.pickLive(rng); id != 0 && rng.Intn(2) == 0 {
				wantID, target = id, w.profiles[id]
			} else {
				target = w.ds.Profiles[rng.Intn(len(w.ds.Profiles))]
			}
			got, partial, err := w.f.DynSearchSharded(w.shards, w.nodes, target, w.bigK(), 0)
			if err != nil {
				w.t.Fatalf("churn op %d: search: %v", op, err)
			}
			if cerr := w.checkSearch(target, got, partial, wantID); cerr != nil {
				w.t.Fatalf("churn op %d (seed %d): %v", op, w.p.seed, cerr)
			}
		}
	}
}

// insertOwned inserts one fresh user owned by partition s, guaranteeing
// that group s sees a write (the scripted phases use it to force a dead
// replica into lagging state deterministically).
func (w *repDynWorld) insertOwned(s int) {
	w.t.Helper()
	id := w.nextID
	w.nextID++
	for w.owner(id) != s {
		id = w.nextID
		w.nextID++
	}
	profile := w.ds.Profiles[int(id)%len(w.ds.Profiles)]
	if err := w.serving.Insert(id, profile); err != nil {
		w.t.Fatalf("insert %d into group %d: %v", id, s, err)
	}
	w.profiles[id] = profile
	w.live[id] = true
}

func (w *repDynWorld) pickLive(rng *rand.Rand) uint64 {
	if len(w.live) == 0 {
		return 0
	}
	ids := make([]uint64, 0, len(w.live))
	for id := range w.live {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
	return ids[rng.Intn(len(ids))]
}

// verifyAll searches for every live user through the groups: each must be
// reachable via its own profile, with a complete, ghost-free result.
func (w *repDynWorld) verifyAll(stage string) {
	w.t.Helper()
	for id := range w.live {
		target := w.profiles[id]
		got, partial, err := w.f.DynSearchSharded(w.shards, w.nodes, target, w.bigK(), 0)
		if err != nil {
			w.t.Fatalf("%s: search for %d: %v", stage, id, err)
		}
		if cerr := w.checkSearch(target, got, partial, id); cerr != nil {
			w.t.Fatalf("%s: search for %d (seed %d): %v", stage, id, w.p.seed, cerr)
		}
	}
}

// verifyReplica checks ONE replica individually, bypassing the group: a
// forked client searches the replica's own bucket store for every live
// user the partition owns, and the replica's profile store must hold
// exactly the partition's live profile set.
func (w *repDynWorld) verifyReplica(stage string, s, r int, node shard.ReplicaNode) {
	w.t.Helper()
	fork, err := w.shards[s].Client.Fork()
	if err != nil {
		w.t.Fatalf("%s: fork client for shard %d: %v", stage, s, err)
	}
	var wantIDs []uint64
	for id := range w.live {
		if w.owner(id) == s {
			wantIDs = append(wantIDs, id)
		}
	}
	sort.Slice(wantIDs, func(a, b int) bool { return wantIDs[a] < wantIDs[b] })
	for _, id := range wantIDs {
		ids, err := fork.Search(node, w.f.ComputeMeta(w.profiles[id]))
		if err != nil {
			w.t.Fatalf("%s: group %d replica %d: direct search for %d: %v", stage, s, r, id, err)
		}
		found := false
		for _, got := range ids {
			if got == id {
				found = true
			}
			if _, known := w.profiles[got]; !known {
				w.t.Fatalf("%s: group %d replica %d: ghost id %d", stage, s, r, got)
			}
			if w.deleted[got] {
				w.t.Fatalf("%s: group %d replica %d: deleted id %d resurfaced", stage, s, r, got)
			}
		}
		if !found {
			w.t.Fatalf("%s: group %d replica %d: live user %d missing from direct search", stage, s, r, id)
		}
	}
	gotIDs, err := node.ProfileIDs()
	if err != nil {
		w.t.Fatalf("%s: group %d replica %d: profile ids: %v", stage, s, r, err)
	}
	if len(gotIDs) != len(wantIDs) {
		w.t.Fatalf("%s: group %d replica %d: profile store holds %d ids, want %d",
			stage, s, r, len(gotIDs), len(wantIDs))
	}
	for i := range wantIDs {
		if gotIDs[i] != wantIDs[i] {
			w.t.Fatalf("%s: group %d replica %d: profile id[%d] = %d, want %d",
				stage, s, r, i, gotIDs[i], wantIDs[i])
		}
	}
}

// verifyEveryReplica runs verifyReplica across the whole fleet.
func (w *repDynWorld) verifyEveryReplica(stage string) {
	w.t.Helper()
	for s, g := range w.groups {
		for r := 0; r < g.Len(); r++ {
			w.verifyReplica(stage, s, r, g.Replica(r))
		}
	}
}

// runReplicatedChurnPhase is the dynamic heart of the suite: kills land
// MID-churn, the repairer re-syncs the victims, and then the OTHER
// replica dies — at which point only a correct repair keeps the answers
// exact. Ends by verifying every replica individually and migrating a
// brand-new replica in under concurrent churn.
func runReplicatedChurnPhase(t *testing.T, p repParams) {
	w := newRepDynWorld(t, p)
	rng := rand.New(rand.NewSource(p.seed*77 + 5))
	ctx := context.Background()

	// Fault-free warmup.
	w.churn(rng, 6)
	w.verifyAll("warmup")

	// Kill replica 0 of every group, interleaved with live churn ops so
	// the kills land mid-stream. One guaranteed insert per group makes
	// every dead replica miss a write — it MUST come back lagging.
	for s := range w.groups {
		w.killReplica(s, 0)
		w.churn(rng, 2)
		w.insertOwned(s)
	}
	w.probe(2)
	for s, g := range w.groups {
		st := g.Status()[0]
		if !st.Down || st.Current {
			t.Fatalf("group %d replica 0 after kill+probes: %+v, want down and not current", s, st)
		}
	}
	w.churn(rng, 8)
	w.verifyAll("replica 0 down")

	// Heal and repair: the victims re-join lagging (their server version
	// is behind the group's) and the anti-entropy round re-syncs them.
	for s := range w.groups {
		w.healReplica(s, 0)
	}
	w.probe(1)
	for s, g := range w.groups {
		st := g.Status()[0]
		if st.Down || st.Current {
			t.Fatalf("group %d replica 0 after heal+probe: %+v, want readmitted but lagging", s, st)
		}
	}
	repairs0 := counters(w.reg)["replica.repairs"]
	if repaired := w.repairer.RepairOnce(ctx); repaired != len(w.groups) {
		t.Fatalf("RepairOnce repaired %d replicas, want %d", repaired, len(w.groups))
	}
	if d := counters(w.reg)["replica.repairs"] - repairs0; d != int64(len(w.groups)) {
		t.Fatalf("replica.repairs advanced by %d, want %d", d, len(w.groups))
	}
	for s, g := range w.groups {
		if st := g.Status()[0]; !st.Current {
			t.Fatalf("group %d replica 0 after repair: %+v, want current", s, st)
		}
	}

	// Now kill every OTHER replica everywhere: reads can only land on the
	// repaired replica 0. Exact answers here are the differential proof
	// that the repair restored the complete logical state.
	for s := range w.groups {
		for r := 1; r < w.p.replicas; r++ {
			w.killReplica(s, r)
		}
		w.churn(rng, 1)
	}
	w.probe(2)
	w.churn(rng, 6)
	w.verifyAll("repaired replica serving alone")

	// Heal, repair, verify the whole fleet converged — every replica
	// individually answers the full live set.
	for s := range w.groups {
		for r := 1; r < w.p.replicas; r++ {
			w.healReplica(s, r)
		}
	}
	w.probe(1)
	w.repairer.RepairOnce(ctx)
	for s, g := range w.groups {
		for r, st := range g.Status() {
			if !st.Current {
				t.Fatalf("group %d replica %d not current at convergence: %+v", s, r, st)
			}
		}
	}
	w.verifyEveryReplica("post-repair convergence")
	if lag := w.reg.Snapshot().Gauges["replica.lag"]; lag != 0 {
		t.Fatalf("replica.lag = %d after repairs, want 0", lag)
	}

	runRebalancePhase(t, w, rng)
}

// runRebalancePhase joins a brand-new empty replica to group 0 and
// migrates the partition's state onto it online, while churn keeps
// writing through the group — then verifies the joiner individually.
func runRebalancePhase(t *testing.T, w *repDynWorld, rng *rand.Rand) {
	t.Helper()
	ctx := context.Background()
	joinIdx := w.groups[0].Len()
	joiner := newRepServer(w.t, w.net, repDynServerPeer(0, joinIdx), repDynClientPeer(0, joinIdx))
	j, err := w.groups[0].AddReplica(joiner)
	if err != nil {
		t.Fatal(err)
	}

	mig, err := frontend.NewReplicaMigration(w.shards)
	if err != nil {
		t.Fatal(err)
	}
	width := mig.Width(0)
	if width == 0 {
		t.Fatal("migration width is 0")
	}
	rb := &shard.Rebalancer{
		Prepare: func(g int, src, dst shard.ReplicaNode) error { return mig.Prepare(g, src, dst) },
		CopyRange: func(g int, src, dst shard.ReplicaNode, lo, hi uint64) error {
			return mig.CopyRange(g, src, dst, lo, hi)
		},
		Finish: func(g int, src, dst shard.ReplicaNode) error { return mig.Finish(g, src, dst) },
		Width:  width,
		Chunk:  width/4 + 1,
	}

	// Concurrent churn on the joining group while the migration copies.
	done := make(chan error, 1)
	go func() {
		for i := 0; i < 3; i++ {
			id := w.nextID
			w.nextID++
			for w.owner(id) != 0 {
				id = w.nextID
				w.nextID++
			}
			profile := w.ds.Profiles[int(id)%len(w.ds.Profiles)]
			if err := w.serving.Insert(id, profile); err != nil {
				done <- fmt.Errorf("concurrent insert %d: %w", id, err)
				return
			}
			w.profiles[id] = profile
			w.live[id] = true
		}
		done <- nil
	}()
	migErr := rb.Migrate(ctx, w.groups[0], j)
	if cerr := <-done; cerr != nil {
		t.Fatalf("churn during migration: %v", cerr)
	}
	if migErr != nil {
		t.Fatalf("Migrate: %v", migErr)
	}
	if st := w.groups[0].Status()[j]; !st.Current {
		t.Fatalf("joiner not current after migration: %+v", st)
	}
	w.verifyAll("post-migration")
	w.verifyReplica("joiner", 0, j, w.groups[0].Replica(j))
}
