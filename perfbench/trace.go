package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"hash/fnv"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"pisd/internal/core"
	"pisd/internal/frontend"
	"pisd/internal/shard"
)

// tracer collects the spans the timing shims record while enabled. The
// shims wrap the public interfaces the stack accepts, so the program runs
// unmodified; disabled shims only forward the call.
type tracer struct {
	on    atomic.Bool
	epoch time.Time

	// writer is the goroutine id of dynamic-churn's writer: its DynNode
	// calls belong to the update in flight, every other DynNode call to
	// the search in flight.
	writer atomic.Uint64

	nextFlush atomic.Int64
	inFlush   sync.Map // first *core.Trapdoor of a flush → flush id

	mu      sync.Mutex
	flushes []flushSpan
	legs    []legSpan
	dyn     []dynSpan
	emits   []time.Duration
}

// span is an interval relative to the tracer's epoch.
type span struct{ start, end time.Duration }

func (s span) dur() time.Duration { return s.end - s.start }

func (s span) contains(c span) bool { return s.start <= c.start && c.end <= s.end }

type flushSpan struct {
	span
	id  int64
	fps []uint64 // trapdoor fingerprints, one per coalesced query
}

type legSpan struct {
	span
	flush int64
	shard int
}

type dynKind int

const (
	dynFetch dynKind = iota
	dynStore
	dynFetchProfiles
	dynProfileWrite // PutProfiles or DeleteProfile
)

type dynSpan struct {
	span
	kind   dynKind
	shard  int
	writer bool
	bytes  int64 // wire bytes of a writer call
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) since(at time.Time) time.Duration { return at.Sub(t.epoch) }

func (t *tracer) addEmit(at time.Time) {
	t.mu.Lock()
	t.emits = append(t.emits, t.since(at))
	t.mu.Unlock()
}

// fingerprint identifies a trapdoor by the bucket positions and masks it
// addresses; the frontend derives trapdoors deterministically, so the
// benchmark can match a flushed trapdoor to the request that issued it.
func fingerprint(t *core.Trapdoor) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, entries := range t.Tables {
		for _, e := range entries {
			binary.LittleEndian.PutUint64(buf[:], e.Pos)
			h.Write(buf[:])
			h.Write(e.Mask)
		}
	}
	for _, m := range t.Stash {
		h.Write(m)
	}
	return h.Sum64()
}

// goid returns the calling goroutine's id, parsed from its stack header.
func goid() uint64 {
	var buf [64]byte
	b := buf[:runtime.Stack(buf[:], false)]
	b = bytes.TrimPrefix(b, []byte("goroutine "))
	if i := bytes.IndexByte(b, ' '); i >= 0 {
		b = b[:i]
	}
	id, _ := strconv.ParseUint(string(b), 10, 64)
	return id
}

// flushShim wraps the serving path's fan-out: one span per coalesced
// SecRecBatch flush.
type flushShim struct {
	inner frontend.FanoutBatchServer
	tr    *tracer
}

func (s flushShim) SecRecBatch(ctx context.Context, ts []*core.Trapdoor) ([][]uint64, [][][]byte, bool, error) {
	if !s.tr.on.Load() || len(ts) == 0 {
		return s.inner.SecRecBatch(ctx, ts)
	}
	id := s.tr.nextFlush.Add(1)
	s.tr.inFlush.Store(ts[0], id)
	start := time.Now()
	ids, profiles, partial, err := s.inner.SecRecBatch(ctx, ts)
	end := time.Now()
	s.tr.inFlush.Delete(ts[0])
	fps := make([]uint64, len(ts))
	for i, t := range ts {
		fps[i] = fingerprint(t)
	}
	s.tr.mu.Lock()
	s.tr.flushes = append(s.tr.flushes, flushSpan{span: span{s.tr.since(start), s.tr.since(end)}, id: id, fps: fps})
	s.tr.mu.Unlock()
	return ids, profiles, partial, err
}

// legShim wraps one shard node of the pool: one span per shard leg of a
// flush.
type legShim struct {
	shard.Node
	shard int
	tr    *tracer
}

func (s legShim) SecRecBatch(ctx context.Context, ts []*core.Trapdoor) ([][]uint64, [][][]byte, error) {
	if !s.tr.on.Load() || len(ts) == 0 {
		return s.Node.SecRecBatch(ctx, ts)
	}
	start := time.Now()
	ids, profiles, err := s.Node.SecRecBatch(ctx, ts)
	end := time.Now()
	flush, _ := s.tr.inFlush.Load(ts[0])
	fid, _ := flush.(int64)
	s.tr.mu.Lock()
	s.tr.legs = append(s.tr.legs, legSpan{span: span{s.tr.since(start), s.tr.since(end)}, flush: fid, shard: s.shard})
	s.tr.mu.Unlock()
	return ids, profiles, err
}

// dynShim wraps one dynamic shard node: one span per bucket fetch, bucket
// store, profile fetch and profile upload or removal. Writer calls also
// record their wire bytes; the serving path's churn lock keeps searches off
// the wire while a writer call runs, so the connection's traffic delta is
// the call's own.
type dynShim struct {
	*shard.Remote
	shard int
	tr    *tracer
}

func (s dynShim) record(kind dynKind, call func() error) error {
	if !s.tr.on.Load() {
		return call()
	}
	writer := goid() == s.tr.writer.Load()
	var tx0, rx0 int64
	if writer {
		tx0, rx0 = s.Remote.Traffic()
	}
	start := time.Now()
	err := call()
	end := time.Now()
	sp := dynSpan{span: span{s.tr.since(start), s.tr.since(end)}, kind: kind, shard: s.shard, writer: writer}
	if writer {
		tx, rx := s.Remote.Traffic()
		sp.bytes = tx + rx - tx0 - rx0
	}
	s.tr.mu.Lock()
	s.tr.dyn = append(s.tr.dyn, sp)
	s.tr.mu.Unlock()
	return err
}

func (s dynShim) FetchBuckets(refs []core.BucketRef) ([]core.DynBucket, error) {
	var out []core.DynBucket
	err := s.record(dynFetch, func() error {
		var err error
		out, err = s.Remote.FetchBuckets(refs)
		return err
	})
	return out, err
}

func (s dynShim) StoreBuckets(refs []core.BucketRef, buckets []core.DynBucket) error {
	return s.record(dynStore, func() error { return s.Remote.StoreBuckets(refs, buckets) })
}

func (s dynShim) FetchProfiles(ids []uint64) ([][]byte, error) {
	var out [][]byte
	err := s.record(dynFetchProfiles, func() error {
		var err error
		out, err = s.Remote.FetchProfiles(ids)
		return err
	})
	return out, err
}

func (s dynShim) PutProfiles(profiles map[uint64][]byte) error {
	return s.record(dynProfileWrite, func() error { return s.Remote.PutProfiles(profiles) })
}

func (s dynShim) DeleteProfile(id uint64) error {
	return s.record(dynProfileWrite, func() error { return s.Remote.DeleteProfile(id) })
}

// reset drops every recorded span.
func (t *tracer) reset() {
	t.mu.Lock()
	t.flushes, t.legs, t.dyn, t.emits = nil, nil, nil, nil
	t.mu.Unlock()
}

// covered returns the length of the union of the children's intervals.
func covered(children []span) time.Duration {
	if len(children) == 0 {
		return 0
	}
	cs := append([]span(nil), children...)
	sort.Slice(cs, func(a, b int) bool { return cs[a].start < cs[b].start })
	var total time.Duration
	cur := cs[0]
	for _, c := range cs[1:] {
		if c.start > cur.end {
			total += cur.dur()
			cur = c
			continue
		}
		if c.end > cur.end {
			cur.end = c.end
		}
	}
	return total + cur.dur()
}

// findContaining returns the index of the span in sorted (by start,
// non-overlapping) parents that contains c, or -1.
func findContaining(parents []span, c span) int {
	i := sort.Search(len(parents), func(i int) bool { return parents[i].start > c.start }) - 1
	if i >= 0 && parents[i].contains(c) {
		return i
	}
	return -1
}
