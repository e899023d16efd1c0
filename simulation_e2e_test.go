// Differential simulation of the full PISD stack under injected network
// faults, in the deterministic-simulation style: every run is keyed by a
// seed, every fault comes from the seeded faultnet schedule, and every
// result the encrypted pipeline produces is checked against a plaintext
// oracle. A failing seed is printed (and written to the CI artifact file)
// and reproduces the same workload and fault schedule.
//
// Per seed, four phases:
//
//	A. Static discovery under random faults: concurrent workers drive
//	   Discover / DiscoverBatch through a sharded TCP deployment while the
//	   links drop, truncate, reset, slow and stall. Successes must match
//	   the oracle exactly (complete results) or match the oracle over some
//	   healthy-shard subset (partial results); failures must be typed
//	   transport faults.
//	B. Scripted partitions with the random schedule off: partial flags,
//	   all-shards-down errors and post-heal recovery are checked exactly.
//	C. Dynamic churn through remote shards: a fault-free warmup with
//	   exact-membership checks, then insert/delete/search under faults
//	   with semantic invariants (no ghosts, exact distances, reachability
//	   on healthy shards).
//	D. Final convergence: faults off, partitions healed — the static
//	   world must answer complete, oracle-exact results again, proving no
//	   lingering stream corruption survived the chaos.
package pisd_test

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"pisd/internal/frontend"
)

func TestSimulationE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation suite")
	}
	for _, seed := range simSeeds(t) {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Cleanup(func() {
				if t.Failed() {
					recordFailingSeed(t, seed)
				}
			})
			p := deriveSimParams(seed)
			t.Logf("seed %d: users=%d shards=%d k=%d plan=%+v", seed, p.users, p.shards, p.k, p.plan)

			w := newStaticWorld(t, p)
			runStaticFaultPhase(t, w)
			runPartitionPhase(t, w)
			runDynamicChurnPhase(t, p)
			runConvergencePhase(t, w)
		})
	}
}

// runStaticFaultPhase drives concurrent single and batched discoveries
// through the faulted links. Each worker validates its own results, so a
// response routed to the wrong caller (cross-query leakage) shows up as
// an oracle mismatch in the worker that received it.
func runStaticFaultPhase(t *testing.T, w *staticWorld) {
	w.net.SetEnabled(true)
	defer w.net.SetEnabled(false)

	const workers, queriesPer = 3, 8
	ctx := context.Background()
	var wg sync.WaitGroup
	errs := make(chan error, workers+1)
	completed := make([]int, workers+1)

	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(w.p.seed*100 + int64(g)))
			for i := 0; i < queriesPer; i++ {
				qi := rng.Intn(w.p.users)
				target := w.ds.Profiles[qi]
				var exclude uint64
				if rng.Intn(2) == 0 {
					exclude = uint64(qi + 1)
				}
				got, partial, err := w.f.Discover(ctx, w.pool, target, w.p.k, exclude)
				if err != nil {
					if !isTransportFault(err) {
						errs <- fmt.Errorf("worker %d query %d: non-transport failure %T: %w", g, i, err, err)
						return
					}
					continue
				}
				completed[g]++
				if cerr := w.checkQuery(target, w.p.k, exclude, got, partial); cerr != nil {
					errs <- fmt.Errorf("worker %d query %d (target user %d, partial=%v): %w", g, i, qi+1, partial, cerr)
					return
				}
			}
		}(g)
	}

	// One batch worker alongside the single-query workers.
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(w.p.seed*100 + 99))
		for i := 0; i < 4; i++ {
			nq := 3 + rng.Intn(3)
			targets := make([][]float64, nq)
			excludes := make([]uint64, nq)
			for q := range targets {
				qi := rng.Intn(w.p.users)
				targets[q] = w.ds.Profiles[qi]
				excludes[q] = uint64(qi + 1)
			}
			got, partial, err := w.f.DiscoverBatch(ctx, w.pool, targets, w.p.k, excludes)
			if err != nil {
				if !isTransportFault(err) {
					errs <- fmt.Errorf("batch %d: non-transport failure %T: %w", i, err, err)
					return
				}
				continue
			}
			completed[workers]++
			if cerr := w.checkBatch(targets, w.p.k, excludes, got, partial); cerr != nil {
				errs <- fmt.Errorf("batch %d (partial=%v): %w", i, partial, cerr)
				return
			}
		}
	}()

	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	total := 0
	for _, c := range completed {
		total += c
	}
	t.Logf("static fault phase: %d/%d requests completed and verified", total, workers*queriesPer+4)
	if total == 0 {
		t.Fatal("no request completed under faults; the plan is too hostile to verify anything")
	}
}

// runPartitionPhase checks partial-degradation semantics exactly: each
// single-shard partition must flag partial and serve precisely the
// surviving shards' users; losing every shard must be an error; healing
// must restore complete results.
func runPartitionPhase(t *testing.T, w *staticWorld) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(w.p.seed*1000 + 7))

	for s := 0; s < w.p.shards; s++ {
		w.partitionShard(s)
		alive := w.aliveFn((1<<w.p.shards - 1) &^ (1 << s))
		for i := 0; i < 3; i++ {
			qi := rng.Intn(w.p.users)
			target := w.ds.Profiles[qi]
			got, partial, err := w.f.Discover(ctx, w.pool, target, w.p.k, 0)
			if err != nil {
				t.Fatalf("shard %d partitioned, query %d: %v", s, i, err)
			}
			if !partial {
				t.Fatalf("shard %d partitioned but result not flagged partial", s)
			}
			want := w.oracle.DiscoverOwned(target, w.p.k, 0, alive)
			if cerr := frontend.EqualMatches(got, want); cerr != nil {
				t.Fatalf("shard %d partitioned, query %d: %v", s, i, cerr)
			}
		}
		w.healShard(s)
	}

	// Total partition: every shard down is an error, not an empty result.
	for s := 0; s < w.p.shards; s++ {
		w.partitionShard(s)
	}
	if _, _, err := w.f.Discover(ctx, w.pool, w.ds.Profiles[0], w.p.k, 0); err == nil {
		t.Fatal("all shards partitioned yet discovery succeeded")
	} else if !isTransportFault(err) {
		t.Fatalf("all-shards-down error is %T (%v), want a transport fault", err, err)
	}

	// Heal everything: the next result must be complete and exact.
	for s := 0; s < w.p.shards; s++ {
		w.healShard(s)
	}
	target := w.ds.Profiles[1]
	got, partial, err := w.f.Discover(ctx, w.pool, target, w.p.k, 0)
	if err != nil {
		t.Fatalf("after heal: %v", err)
	}
	if partial {
		t.Fatal("after heal: still partial")
	}
	if cerr := w.checkQuery(target, w.p.k, 0, got, false); cerr != nil {
		t.Fatalf("after heal: %v", cerr)
	}
}

// runDynamicChurnPhase exercises the updatable scheme end to end over
// remote shards: first fault-free (exact membership), then under the
// seeded schedule with the weakened invariants of checkSearch, and
// finally fault-free again to confirm surviving state is still coherent.
func runDynamicChurnPhase(t *testing.T, p simParams) {
	w := newDynWorld(t, p)
	rng := rand.New(rand.NewSource(p.seed*10000 + 3))

	// Fault-free warmup: every initial user is reachable, exactly.
	for i := 0; i < 5; i++ {
		id := uint64(rng.Intn(len(w.certain)) + 1)
		target := w.profiles[id]
		got, partial, err := w.f.DynSearchSharded(w.shards, w.nodes, target, w.bigK(), 0)
		if err != nil {
			t.Fatalf("warmup search %d: %v", i, err)
		}
		if partial {
			t.Fatalf("warmup search %d partial with healthy links", i)
		}
		if cerr := w.checkSearch(target, got, partial, id); cerr != nil {
			t.Fatalf("warmup search %d: %v", i, cerr)
		}
	}

	// Churn under faults.
	w.net.SetEnabled(true)
	ops, failures := 0, 0
	for op := 0; op < 40; op++ {
		switch r := rng.Intn(10); {
		case r < 4: // insert a brand-new user
			id := w.nextID
			w.nextID++
			profile := w.ds.Profiles[int(id)%len(w.ds.Profiles)]
			w.profiles[id] = profile
			err := w.serving.Insert(id, profile)
			if err != nil {
				if !isTransportFault(err) {
					t.Fatalf("op %d: insert %d failed with non-transport error %T: %v", op, id, err, err)
				}
				failures++
				w.markUpdateFailed(id)
				continue
			}
			w.certain[id] = true
			ops++
		case r < 6: // delete a certain user
			id := w.pickCertain(rng)
			if id == 0 {
				continue
			}
			err := w.serving.Delete(id, w.profiles[id])
			if err != nil {
				if !isTransportFault(err) {
					t.Fatalf("op %d: delete %d failed with non-transport error %T: %v", op, id, err, err)
				}
				failures++
				w.markUpdateFailed(id)
				continue
			}
			delete(w.certain, id)
			w.deleted[id] = true
			ops++
		default: // search
			var wantID uint64
			var target []float64
			if id := w.pickCertain(rng); id != 0 && rng.Intn(2) == 0 {
				wantID, target = id, w.profiles[id]
			} else {
				target = w.ds.Profiles[rng.Intn(len(w.ds.Profiles))]
			}
			got, partial, err := w.f.DynSearchSharded(w.shards, w.nodes, target, w.bigK(), 0)
			if err != nil {
				if !isTransportFault(err) {
					t.Fatalf("op %d: search failed with non-transport error %T: %v", op, err, err)
				}
				failures++
				continue
			}
			if cerr := w.checkSearch(target, got, partial, wantID); cerr != nil {
				t.Fatalf("op %d (seed %d): %v", op, p.seed, cerr)
			}
			ops++
		}
	}
	w.net.SetEnabled(false)
	t.Logf("dynamic churn: %d ops verified, %d tolerated transport failures, %d shaky shards", ops, failures, len(w.shaky))

	// Fault-free closing pass: every certain user on a non-shaky shard is
	// still reachable and every search is clean. Two degradations are
	// legitimate here and only these two. First, a fault that killed a
	// connection after its last call completed leaves the Remote holding a
	// dead client: the first attempt on it fails once, the redial heals it
	// — absorbed by a bounded retry. Second, a shard marked shaky may be
	// durably degraded: a failed insert can leave an id indexed with its
	// profile upload lost, and every later search addressing that id fails
	// on that shard (FetchProfiles refuses unknown ids), flagging the
	// result partial forever. Searches fan out to all shards, so partial
	// is acceptable iff a shaky shard exists; non-shaky shards run a
	// read-only, retry-healed path and must answer, so the target user —
	// owned by a non-shaky shard — must be present even in a partial
	// result, which is what passing partial=false to checkSearch asserts.
	for id := range w.certain {
		if w.shaky[w.owner(id)] {
			continue
		}
		target := w.profiles[id]
		var got []frontend.Match
		var partial bool
		var err error
		for attempt := 0; attempt < 3; attempt++ {
			got, partial, err = w.f.DynSearchSharded(w.shards, w.nodes, target, w.bigK(), 0)
			if err == nil && !partial {
				break
			}
		}
		if err != nil {
			t.Fatalf("closing search for %d: %v", id, err)
		}
		if partial && len(w.shaky) == 0 {
			t.Fatalf("closing search for %d partial with faults disabled and no shaky shards", id)
		}
		if cerr := w.checkSearch(target, got, false, id); cerr != nil {
			t.Fatalf("closing search for %d (seed %d): %v", id, p.seed, cerr)
		}
	}
}

// runConvergencePhase re-validates the static world after all the chaos:
// with faults off and partitions healed, complete oracle-exact answers
// must flow again on whatever connections survived or redialed.
func runConvergencePhase(t *testing.T, w *staticWorld) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(w.p.seed*5 + 1))
	for i := 0; i < 6; i++ {
		qi := rng.Intn(w.p.users)
		target := w.ds.Profiles[qi]
		got, partial, err := w.f.Discover(ctx, w.pool, target, w.p.k, uint64(qi+1))
		if err != nil {
			t.Fatalf("convergence query %d: %v", i, err)
		}
		if partial {
			t.Fatalf("convergence query %d partial with healthy links", i)
		}
		if cerr := w.checkQuery(target, w.p.k, uint64(qi+1), got, false); cerr != nil {
			t.Fatalf("convergence query %d: %v", i, cerr)
		}
	}
	// And one batch.
	targets := [][]float64{w.ds.Profiles[0], w.ds.Profiles[1], w.ds.Profiles[2]}
	got, partial, err := w.f.DiscoverBatch(ctx, w.pool, targets, w.p.k, nil)
	if err != nil || partial {
		t.Fatalf("convergence batch: partial=%v err=%v", partial, err)
	}
	if cerr := w.checkBatch(targets, w.p.k, nil, got, false); cerr != nil {
		t.Fatalf("convergence batch: %v", cerr)
	}
}
