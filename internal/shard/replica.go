package shard

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"pisd/internal/core"
	"pisd/internal/obs"
)

// Compile-time checks: both node flavours carry the replication surface.
var (
	_ ReplicaNode = Local{}
	_ ReplicaNode = (*Remote)(nil)
)

// GroupConfig tunes one replica group's dispatch behaviour.
type GroupConfig struct {
	// Timeout bounds each per-replica read attempt made with a caller
	// context (discovery legs, pings); zero leaves only the caller's
	// deadline. Context-free operations (profile and bucket fetches) are
	// bounded by the per-node timeout (Remote.SetTimeout) instead.
	Timeout time.Duration
	// OnFailover, when non-nil, observes every read failover: the group,
	// the replica whose attempt failed, and the fault that caused it.
	OnFailover func(group, replica int, err error)
}

// replicaState is the group's bookkeeping for one member: how much of the
// group's write history the member has provably applied, and how healthy
// it currently looks to reads and probes.
type replicaState struct {
	node ReplicaNode
	// applied is the newest group write version this replica applied as
	// part of an unbroken prefix: it has every write ≤ applied.
	applied uint64
	// lagging marks a replica that missed or failed at least one write.
	// It keeps receiving new writes (so its lag stops growing) but is
	// excluded from reads until the repairer re-syncs it from a peer.
	lagging bool
	// down marks a replica demoted by the health prober: writes skip it
	// entirely (marking it lagging) and reads use it only as a last
	// resort when no live current replica answers.
	down       bool
	probeFails int    // consecutive failed health probes
	probeOKs   int    // consecutive successful probes while down
	readFaults int    // connection-level read faults since the last success
	writeFails uint64 // cumulative write failures on this replica
}

// current reports whether the replica can serve reads without risking a
// stale answer: it has applied every group write and missed none.
func (rep *replicaState) current(version uint64) bool {
	return !rep.lagging && rep.applied == version
}

// ReplicaGroup replicates one shard partition across R interchangeable
// nodes and presents them as a single Node, so a fan-out Pool (and
// through it the serving stack) is oblivious to replication. Reads
// dispatch to the healthiest replica that has applied every write and
// fail over to a sibling on connection-level faults — a dead replica
// never degrades the fan-out to a partial result while a sibling is
// alive. Writes fan to all live replicas under a per-group version
// counter; a replica that misses a write is excluded from reads until
// the anti-entropy repairer (health.go) re-syncs it. A group of one is
// valid and behaves like the bare node.
type ReplicaGroup struct {
	id  int
	cfg GroupConfig

	// wmu serializes multi-replica mutations — write fan-outs, repairs
	// and migrations — so every replica observes the same write order and
	// a repair never races a half-applied write.
	wmu sync.Mutex

	mu      sync.Mutex // guards reps, version, lastLag
	reps    []*replicaState
	version uint64 // writes issued through the group, 1-based
	lastLag int    // lagging count last reported to the lag gauge

	met *groupMetrics
}

var _ Node = (*ReplicaGroup)(nil)

// NewReplicaGroup assembles partition id's replica group over the given
// member nodes, all assumed in sync (freshly installed or empty).
func NewReplicaGroup(id int, cfg GroupConfig, nodes ...ReplicaNode) (*ReplicaGroup, error) {
	if len(nodes) == 0 {
		return nil, errors.New("shard: replica group needs at least one node")
	}
	g := &ReplicaGroup{id: id, cfg: cfg, met: newGroupMetrics(obs.Default, id, len(nodes))}
	for i, n := range nodes {
		if n == nil {
			return nil, fmt.Errorf("shard: replica %d is nil", i)
		}
		g.reps = append(g.reps, &replicaState{node: n})
	}
	return g, nil
}

// ID returns the partition index the group replicates.
func (g *ReplicaGroup) ID() int { return g.id }

// Len returns the current number of replicas.
func (g *ReplicaGroup) Len() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.reps)
}

// Replica returns member i's node, for direct (group-bypassing) access in
// tests and repair tooling.
func (g *ReplicaGroup) Replica(i int) ReplicaNode {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.reps[i].node
}

// Version returns the number of writes issued through the group.
func (g *ReplicaGroup) Version() uint64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.version
}

// ReplicaStatus is a point-in-time view of one group member.
type ReplicaStatus struct {
	// Applied is the newest write version in the member's unbroken prefix.
	Applied uint64
	// Down reports prober demotion; Lagging a missed write awaiting
	// repair; Current that reads may be served from this member.
	Down    bool
	Lagging bool
	Current bool
	// WriteFails counts writes that failed on this member.
	WriteFails uint64
}

// Status snapshots every member's health, in replica order.
func (g *ReplicaGroup) Status() []ReplicaStatus {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make([]ReplicaStatus, len(g.reps))
	for i, rep := range g.reps {
		out[i] = ReplicaStatus{
			Applied:    rep.applied,
			Down:       rep.down,
			Lagging:    rep.lagging,
			Current:    rep.current(g.version),
			WriteFails: rep.writeFails,
		}
	}
	return out
}

// syncLagMetric pushes the group's lagging-replica count into the shared
// fleet-wide lag gauge as a delta against the group's last report.
func (g *ReplicaGroup) syncLagMetric() {
	g.mu.Lock()
	cur := 0
	for _, rep := range g.reps {
		if rep.lagging {
			cur++
		}
	}
	d := cur - g.lastLag
	g.lastLag = cur
	g.mu.Unlock()
	g.met.lagDelta(d)
}

// downPenalty orders down-but-current replicas after every live one: a
// demoted replica that applied all writes is still consistency-safe to
// read from, so it serves as the last resort rather than failing the
// read outright.
const downPenalty = 1 << 20

// readGroup dispatches one read to the healthiest current replica, failing
// over through the remaining current replicas on connection-level faults.
// Application errors surface immediately (every replica would answer the
// same). Only replicas that applied every group write are candidates, so
// a successful read is never stale; if none exists the read fails rather
// than serve stale data.
func readGroup[T any](g *ReplicaGroup, ctx context.Context, call func(ctx context.Context, n ReplicaNode) (T, error)) (T, error) {
	var zero T
	if ctx == nil {
		ctx = context.Background()
	}
	type cand struct{ i, score int }
	g.mu.Lock()
	v := g.version
	cands := make([]cand, 0, len(g.reps))
	for i, rep := range g.reps {
		if !rep.current(v) {
			continue
		}
		score := rep.readFaults + rep.probeFails
		if rep.down {
			score += downPenalty
		}
		cands = append(cands, cand{i: i, score: score})
	}
	g.mu.Unlock()
	if len(cands) == 0 {
		return zero, fmt.Errorf("shard: group %d: no current replica", g.id)
	}
	sort.SliceStable(cands, func(a, b int) bool { return cands[a].score < cands[b].score })

	var lastErr error
	for k, c := range cands {
		if err := ctx.Err(); err != nil {
			if lastErr == nil {
				lastErr = err
			}
			break
		}
		g.mu.Lock()
		rep := g.reps[c.i]
		node := rep.node
		g.mu.Unlock()
		// The attempt is charged to the replica actually tried, before the
		// call: a fault swallowed by a successful failover to a sibling
		// still shows up on this replica's counters.
		g.met.attempt(c.i)
		cctx := ctx
		cancel := context.CancelFunc(func() {})
		if g.cfg.Timeout > 0 {
			cctx, cancel = context.WithTimeout(ctx, g.cfg.Timeout)
		}
		r, err := call(cctx, node)
		cancel()
		if err == nil {
			g.mu.Lock()
			rep.readFaults = 0
			g.mu.Unlock()
			return r, nil
		}
		if errors.Is(err, context.DeadlineExceeded) {
			g.met.timeout(c.i)
		}
		if !retryable(err) {
			return zero, err
		}
		g.mu.Lock()
		rep.readFaults++
		g.mu.Unlock()
		lastErr = err
		if k < len(cands)-1 {
			g.met.failover()
			if g.cfg.OnFailover != nil {
				g.cfg.OnFailover(g.id, c.i, err)
			}
		}
	}
	return zero, fmt.Errorf("shard: group %d: all current replicas failed: %w", g.id, lastErr)
}

// write issues one group write: the version advances, the write fans to
// every non-down replica concurrently, and each replica's applied prefix
// is updated from its outcome. A replica that fails (or is skipped while
// down) is marked lagging — ambiguity-safe, since a failed call may still
// have been applied server-side — and drops out of reads until repaired.
// The write succeeds if at least one replica applied it.
func (g *ReplicaGroup) write(op string, fn func(n ReplicaNode, v uint64) error) error {
	g.wmu.Lock()
	defer g.wmu.Unlock()

	type target struct {
		i int
		n ReplicaNode
	}
	g.mu.Lock()
	g.version++
	v := g.version
	targets := make([]target, 0, len(g.reps))
	for i, rep := range g.reps {
		if rep.down {
			rep.lagging = true
			continue
		}
		targets = append(targets, target{i: i, n: rep.node})
	}
	g.mu.Unlock()
	defer g.syncLagMetric()
	if len(targets) == 0 {
		return fmt.Errorf("shard: group %d: %s: no live replica", g.id, op)
	}

	errs := make([]error, len(targets))
	var wg sync.WaitGroup
	for k := range targets {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			errs[k] = fn(targets[k].n, v)
		}(k)
	}
	wg.Wait()

	ok := 0
	var lastErr error
	g.mu.Lock()
	for k, t := range targets {
		rep := g.reps[t.i]
		if errs[k] != nil {
			rep.lagging = true
			rep.writeFails++
			lastErr = errs[k]
			continue
		}
		ok++
		// Advance the applied prefix only if this write extends it: a
		// lagging replica accepting new writes still misses older ones.
		if !rep.lagging && rep.applied == v-1 {
			rep.applied = v
		}
	}
	g.mu.Unlock()
	if ok == 0 {
		return fmt.Errorf("shard: group %d: %s failed on all %d replicas: %w", g.id, op, len(targets), lastErr)
	}
	return nil
}

// Ping implements Node: the group is alive if any current replica is.
func (g *ReplicaGroup) Ping(ctx context.Context) error {
	_, err := readGroup(g, ctx, func(ctx context.Context, n ReplicaNode) (struct{}, error) {
		return struct{}{}, n.Ping(ctx)
	})
	return err
}

// SecRecBatch implements Node on the healthiest current replica.
func (g *ReplicaGroup) SecRecBatch(ctx context.Context, ts []*core.Trapdoor) ([][]uint64, [][][]byte, error) {
	type batchLeg struct {
		ids      [][]uint64
		profiles [][][]byte
	}
	r, err := readGroup(g, ctx, func(ctx context.Context, n ReplicaNode) (batchLeg, error) {
		ids, profiles, err := n.SecRecBatch(ctx, ts)
		return batchLeg{ids: ids, profiles: profiles}, err
	})
	return r.ids, r.profiles, err
}

// FetchProfiles implements Node on the healthiest current replica.
func (g *ReplicaGroup) FetchProfiles(ids []uint64) ([][]byte, error) {
	return readGroup(g, nil, func(_ context.Context, n ReplicaNode) ([][]byte, error) {
		return n.FetchProfiles(ids)
	})
}

// FetchProfilesSparse implements Node on the healthiest current replica,
// failing over like every group read.
func (g *ReplicaGroup) FetchProfilesSparse(ids []uint64) ([][]byte, error) {
	return readGroup(g, nil, func(_ context.Context, n ReplicaNode) ([][]byte, error) {
		return n.FetchProfilesSparse(ids)
	})
}

// FetchBuckets implements core.BucketStore on the healthiest current
// replica. The dynamic protocols' read half routes here; their write half
// (StoreBuckets) fans to all replicas, so every touched bucket converges
// on every replica as a side effect of normal churn.
func (g *ReplicaGroup) FetchBuckets(refs []core.BucketRef) ([]core.DynBucket, error) {
	return readGroup(g, nil, func(_ context.Context, n ReplicaNode) ([]core.DynBucket, error) {
		return n.FetchBuckets(refs)
	})
}

// PutProfiles implements Node, fanning to all live replicas.
func (g *ReplicaGroup) PutProfiles(profiles map[uint64][]byte) error {
	return g.write("put profiles", func(n ReplicaNode, v uint64) error {
		if err := n.PutProfiles(profiles); err != nil {
			return err
		}
		return n.ApplyVersion(v)
	})
}

// DeleteProfile implements Node, fanning to all live replicas.
func (g *ReplicaGroup) DeleteProfile(id uint64) error {
	return g.write("delete profile", func(n ReplicaNode, v uint64) error {
		if err := n.DeleteProfile(id); err != nil {
			return err
		}
		return n.ApplyVersion(v)
	})
}

// InstallIndex implements Node, fanning to all live replicas. The static
// index is immutable once installed, so the replicas may share it.
func (g *ReplicaGroup) InstallIndex(idx *core.Index) error {
	return g.write("install index", func(n ReplicaNode, v uint64) error {
		if err := n.InstallIndex(idx); err != nil {
			return err
		}
		return n.ApplyVersion(v)
	})
}

// InstallDynIndex implements Node, fanning to all live replicas. Each
// replica receives its own deep copy: dynamic buckets mutate under churn,
// and in-process replicas installing a shared pointer would alias state
// that must evolve independently, as it would on separate servers.
func (g *ReplicaGroup) InstallDynIndex(idx *core.DynIndex) error {
	return g.write("install dynamic index", func(n ReplicaNode, v uint64) error {
		if err := n.InstallDynIndex(idx.Clone()); err != nil {
			return err
		}
		return n.ApplyVersion(v)
	})
}

// StoreBuckets implements core.BucketStore, fanning to all live replicas
// with the write version carried atomically alongside the buckets.
func (g *ReplicaGroup) StoreBuckets(refs []core.BucketRef, buckets []core.DynBucket) error {
	return g.write("store buckets", func(n ReplicaNode, v uint64) error {
		return n.StoreBucketsVersioned(refs, buckets, v)
	})
}
