package main

import (
	"fmt"
	"runtime"
	"strconv"
	"syscall"
	"time"

	"pisd/internal/obs"
)

// snap is a point-in-time reading of every metric source the benchmark
// uses: the process registry (frontend, shard, transport, crypt), each
// cloud server's own registry, the subscription registry, the shard
// connections' wire traffic and the allocator.
type snap struct {
	def   obs.Snapshot
	cloud []obs.Snapshot
	subs  obs.Snapshot
	bytes int64
	alloc uint64
	cpu   time.Duration // process user+system CPU time
}

func takeSnap(shards []*cloudShard, subsReg *obs.Registry) snap {
	s := snap{def: obs.Default.Snapshot(), subs: subsReg.Snapshot(), bytes: traffic(shards)}
	for _, sh := range shards {
		s.cloud = append(s.cloud, sh.reg.Snapshot())
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.alloc = ms.TotalAlloc
	s.cpu = cpuTime()
	return s
}

// delta is the activity between two snaps.
type delta struct {
	def   obs.Snapshot
	cloud []obs.Snapshot
	subs  obs.Snapshot
	bytes int64
	alloc uint64
	cpu   time.Duration
}

func (s snap) since(prev snap) delta {
	d := delta{def: s.def.Diff(prev.def), subs: s.subs.Diff(prev.subs), bytes: s.bytes - prev.bytes, alloc: s.alloc - prev.alloc, cpu: s.cpu - prev.cpu}
	for i := range s.cloud {
		d.cloud = append(d.cloud, s.cloud[i].Diff(prev.cloud[i]))
	}
	return d
}

func (d delta) counter(name string) float64 { return float64(d.def.Counters[name]) }

// cloudCounter sums a counter over every cloud server.
func (d delta) cloudCounter(name string) float64 {
	var total int64
	for _, c := range d.cloud {
		total += c.Counters[name]
	}
	return float64(total)
}

// cloudMeanUS is the mean of a cloud histogram over every server, in µs.
func (d delta) cloudMeanUS(name string) float64 {
	var sum, count int64
	for _, c := range d.cloud {
		h := c.Histograms[name]
		sum += h.Sum
		count += h.Count
	}
	return ratio(float64(sum), float64(count)) / 1e3
}

// meanUS is the mean of a process-registry histogram, in µs.
func (d delta) meanUS(name string) float64 {
	h := d.def.Histograms[name]
	return ratio(float64(h.Sum), float64(h.Count)) / 1e3
}

// failedLegs counts shard legs that were retried, timed out or failed for
// good, plus fan-outs that came back partial.
func (d delta) failedLegs(shards int) float64 {
	n := d.counter("shard.partial_results")
	for s := 0; s < shards; s++ {
		p := "shard." + strconv.Itoa(s) + "."
		n += d.counter(p+"retries") + d.counter(p+"timeouts") + d.counter(p+"failures")
	}
	return n
}

// checkInvariants is the per-run invariant gate: every static query
// unmasked exactly the index's per-query bucket budget, the cloud's
// leakage counter stayed at zero, no ciphertext failed authentication and,
// on closed-loop workloads, no shard leg failed.
func checkInvariants(d delta, bucketsPerQuery, shards int, closedLoop bool) error {
	queries := d.cloudCounter("cloud.queries")
	if got := d.cloudCounter("cloud.buckets_unmasked"); got != queries*float64(bucketsPerQuery) {
		return fmt.Errorf("invariant: %v buckets unmasked over %v queries, want %d per query", got, queries, bucketsPerQuery)
	}
	if v := d.cloudCounter("cloud.leakage_invariant_violations"); v > 0 {
		return fmt.Errorf("invariant: cloud.leakage_invariant_violations = %v", v)
	}
	if v := d.counter("crypt.dec_auth_fail"); v > 0 {
		return fmt.Errorf("invariant: crypt.dec_auth_fail = %v", v)
	}
	if v := d.failedLegs(shards); closedLoop && v > 0 {
		return fmt.Errorf("invariant: %v failed shard legs on a closed-loop workload", v)
	}
	return nil
}

// cpuTime returns the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
