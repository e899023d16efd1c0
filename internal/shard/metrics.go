package shard

import (
	"strconv"
	"sync"
	"time"

	"pisd/internal/obs"
)

// poolMetrics is the shard tier's metric surface. Per-shard metrics carry
// the shard index in the name ("shard.3.secrec", "shard.3.retries"), so a
// flattened snapshot exposes every shard's fan-out health side by side —
// including the derived "shard.<i>.secrec_p99_ns" latency keys. A nil
// *poolMetrics (pool built against a nil registry) is the disabled mode.
type poolMetrics struct {
	fanouts  *obs.Counter // fan-out operations issued (SecRecBatch)
	partials *obs.Counter // fan-outs that returned degraded/partial results
	fanoutNs *obs.Histogram

	// Indexed by shard.
	legNs    []*obs.Histogram // successful per-shard leg latency (incl. retries)
	attempts []*obs.Counter   // call attempts, first tries included
	retries  []*obs.Counter   // attempts beyond the first (a retryable fault preceded)
	timeouts []*obs.Counter   // attempts failed by per-attempt deadline
	failures []*obs.Counter   // legs failed for good after all retries
}

func newPoolMetrics(r *obs.Registry, shards int) *poolMetrics {
	if r == nil {
		return nil
	}
	m := &poolMetrics{
		fanouts:  r.Counter("shard.fanouts"),
		partials: r.Counter("shard.partial_results"),
		fanoutNs: r.Histogram("shard.fanout"),
		legNs:    make([]*obs.Histogram, shards),
		attempts: make([]*obs.Counter, shards),
		retries:  make([]*obs.Counter, shards),
		timeouts: make([]*obs.Counter, shards),
		failures: make([]*obs.Counter, shards),
	}
	for s := 0; s < shards; s++ {
		prefix := "shard." + strconv.Itoa(s) + "."
		m.legNs[s] = r.Histogram(prefix + "secrec")
		m.attempts[s] = r.Counter(prefix + "attempts")
		m.retries[s] = r.Counter(prefix + "retries")
		m.timeouts[s] = r.Counter(prefix + "timeouts")
		m.failures[s] = r.Counter(prefix + "failures")
	}
	return m
}

func (m *poolMetrics) leg(s int) *obs.Histogram {
	if m == nil {
		return nil
	}
	return m.legNs[s]
}

func (m *poolMetrics) attempt(s int, try int) {
	if m == nil {
		return
	}
	m.attempts[s].Inc()
	if try > 0 {
		m.retries[s].Inc()
	}
}

func (m *poolMetrics) timeout(s int) {
	if m != nil {
		m.timeouts[s].Inc()
	}
}

func (m *poolMetrics) failure(s int) {
	if m != nil {
		m.failures[s].Inc()
	}
}

func (m *poolMetrics) fanout(start time.Time, partial bool) {
	if m == nil {
		return
	}
	m.fanouts.Inc()
	if partial {
		m.partials.Inc()
	}
	m.fanoutNs.ObserveSince(start)
}

// SetRegistry re-registers the pool's metrics in r under the "shard."
// prefix (nil disables them). Pools start on obs.Default; call during
// setup or for test isolation, not concurrently with fan-outs.
func (p *Pool) SetRegistry(r *obs.Registry) {
	p.met = newPoolMetrics(r, len(p.nodes))
}

// groupMetrics is the replica tier's metric surface. The fleet-wide
// counters (replica.failovers, replica.repairs, replica.demotions,
// replica.readmits) and the replica.lag gauge are registered by name, so
// every group in a registry shares them — one number answers "is the
// fleet failing over / repairing / lagging right now". Per-replica
// attempts and timeouts carry the group and replica index in the name
// ("replica.1.0.attempts"), so the counters always name the replica a
// call actually hit — including calls whose connection fault a
// successful failover swallowed. A nil *groupMetrics is the disabled
// mode.
type groupMetrics struct {
	reg   *obs.Registry
	group int

	failovers *obs.Counter // read legs moved to a sibling after a fault
	repairs   *obs.Counter // successful anti-entropy re-syncs
	demotions *obs.Counter // replicas demoted by the health prober
	readmits  *obs.Counter // demoted replicas re-admitted after recovery
	lag       *obs.Gauge   // replicas currently lagging, fleet-wide

	mu       sync.Mutex // guards growth when a replica joins online
	attempts []*obs.Counter
	timeouts []*obs.Counter
}

func newGroupMetrics(r *obs.Registry, group, replicas int) *groupMetrics {
	if r == nil {
		return nil
	}
	m := &groupMetrics{
		reg:       r,
		group:     group,
		failovers: r.Counter("replica.failovers"),
		repairs:   r.Counter("replica.repairs"),
		demotions: r.Counter("replica.demotions"),
		readmits:  r.Counter("replica.readmits"),
		lag:       r.Gauge("replica.lag"),
	}
	m.growLocked(replicas)
	return m
}

// growLocked extends the per-replica counter arrays to n replicas.
func (m *groupMetrics) growLocked(n int) {
	for i := len(m.attempts); i < n; i++ {
		prefix := "replica." + strconv.Itoa(m.group) + "." + strconv.Itoa(i) + "."
		m.attempts = append(m.attempts, m.reg.Counter(prefix+"attempts"))
		m.timeouts = append(m.timeouts, m.reg.Counter(prefix+"timeouts"))
	}
}

func (m *groupMetrics) grow(n int) {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.growLocked(n)
	m.mu.Unlock()
}

func (m *groupMetrics) attempt(i int) {
	if m == nil {
		return
	}
	m.mu.Lock()
	if i < len(m.attempts) {
		m.attempts[i].Inc()
	}
	m.mu.Unlock()
}

func (m *groupMetrics) timeout(i int) {
	if m == nil {
		return
	}
	m.mu.Lock()
	if i < len(m.timeouts) {
		m.timeouts[i].Inc()
	}
	m.mu.Unlock()
}

func (m *groupMetrics) failover() {
	if m != nil {
		m.failovers.Inc()
	}
}

func (m *groupMetrics) repair() {
	if m != nil {
		m.repairs.Inc()
	}
}

func (m *groupMetrics) demotion() {
	if m != nil {
		m.demotions.Inc()
	}
}

func (m *groupMetrics) readmit() {
	if m != nil {
		m.readmits.Inc()
	}
}

func (m *groupMetrics) lagDelta(d int) {
	if m != nil && d != 0 {
		m.lag.Add(int64(d))
	}
}

// SetRegistry re-registers the group's metrics in r (nil disables them).
// Groups start on obs.Default; call during setup or for test isolation,
// not concurrently with traffic.
func (g *ReplicaGroup) SetRegistry(r *obs.Registry) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.lastLag = 0
	g.met = newGroupMetrics(r, g.id, len(g.reps))
}
