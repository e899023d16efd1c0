package shard

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"pisd/internal/core"
	"pisd/internal/transport"
)

// Remote is a Node backed by a pool of framed transport connections to one
// shard server. Each connection is an independently multiplexed gob
// stream, so concurrent SecRecBatch legs no longer serialize behind a single
// encoder: dispatch picks the least-loaded live connection, dialing lazily
// up to the configured pool size (SetConns, default 1).
//
// Fault handling is per connection, not per shard. A call that fails with
// a fatal connection-level error drops only its own slot — the remaining
// pooled connections stay live, so the fan-out pool's bounded retry lands
// on a healthy stream (or a fresh redial) and the shard never degrades to
// a partial result over a single dead socket. A call that merely timed
// out or was cancelled keeps its connection: the multiplexed transport
// skips the late response by its request ID, so the stream (and every
// other call pipelined on it) stays healthy.
type Remote struct {
	addr string
	dial transport.Dialer

	mu      sync.Mutex
	slots   []*remoteConn // fixed-size; nil slots dial lazily
	timeout time.Duration
}

// remoteConn is one pooled connection with its in-flight call count. The
// count is atomic because calls decrement it after releasing the pool
// lock; reads under the lock are a heuristic load signal, not a barrier.
type remoteConn struct {
	c        *transport.Client
	inflight atomic.Int64
}

var _ Node = (*Remote)(nil)

// NewRemote returns a shard node for the transport server at addr with a
// single-connection pool. No connection is made until the first call.
func NewRemote(addr string) *Remote {
	return &Remote{addr: addr, slots: make([]*remoteConn, 1)}
}

// NewRemoteDialer is NewRemote with an injectable connection factory:
// every dial — the lazy first ones and each post-fault redial — goes
// through dial. Fault-injection harnesses (faultnet.Network.Dialer) hook
// in here; nil behaves like NewRemote.
func NewRemoteDialer(addr string, dial transport.Dialer) *Remote {
	r := NewRemote(addr)
	r.dial = dial
	return r
}

// Addr returns the shard server's address.
func (r *Remote) Addr() string { return r.addr }

// SetConns sizes the connection pool (minimum 1). Growing adds empty
// slots that dial on demand; shrinking closes the surplus trailing
// connections, including ones with calls still in flight — size the pool
// before heavy traffic.
func (r *Remote) SetConns(n int) {
	if n < 1 {
		n = 1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := n; i < len(r.slots); i++ {
		if r.slots[i] != nil {
			r.slots[i].c.Close()
		}
	}
	if n <= len(r.slots) {
		r.slots = r.slots[:n]
		return
	}
	r.slots = append(r.slots, make([]*remoteConn, n-len(r.slots))...)
}

// Conns returns the configured pool size.
func (r *Remote) Conns() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.slots)
}

// LiveConns returns how many pooled connections are currently dialed.
func (r *Remote) LiveConns() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	live := 0
	for _, s := range r.slots {
		if s != nil {
			live++
		}
	}
	return live
}

// SetTimeout bounds every call on this node, including calls without a
// context (profile and bucket operations) and calls on fresh connections
// after a redial; zero means unbounded. On a lossy network an unbounded
// bucket fetch whose request frame vanished would wait forever — dynamic
// churn through faulty links needs this bound.
func (r *Remote) SetTimeout(d time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.timeout = d
	for _, s := range r.slots {
		if s != nil {
			s.c.SetTimeout(d)
		}
	}
}

// Close tears down every pooled connection.
func (r *Remote) Close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	var firstErr error
	for i, s := range r.slots {
		if s == nil {
			continue
		}
		if err := s.c.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
		r.slots[i] = nil
	}
	return firstErr
}

// acquire picks the connection for one call and charges it: an idle live
// connection if there is one, otherwise a lazy dial into an empty slot,
// otherwise the least-loaded live connection. A failed dial falls back to
// a live connection rather than failing the call.
func (r *Remote) acquire() (*remoteConn, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	var best *remoteConn
	empty := -1
	for i, s := range r.slots {
		if s == nil {
			if empty < 0 {
				empty = i
			}
			continue
		}
		if best == nil || s.inflight.Load() < best.inflight.Load() {
			best = s
		}
	}
	if best != nil && (empty < 0 || best.inflight.Load() == 0) {
		best.inflight.Add(1)
		return best, nil
	}
	c, err := transport.DialWith(r.addr, r.dial)
	if err != nil {
		if best != nil {
			best.inflight.Add(1)
			return best, nil
		}
		return nil, err
	}
	if r.timeout > 0 {
		c.SetTimeout(r.timeout)
	}
	s := &remoteConn{c: c}
	s.inflight.Add(1)
	r.slots[empty] = s
	return s, nil
}

// drop discards s's connection if it still occupies its slot, leaving the
// slot empty for a lazy redial. Other pooled connections are untouched.
func (r *Remote) drop(s *remoteConn) {
	r.mu.Lock()
	for i, cur := range r.slots {
		if cur == s {
			r.slots[i] = nil
			break
		}
	}
	r.mu.Unlock()
	s.c.Close()
}

// do runs one call on a pooled connection, discarding that connection
// after a fatal connection-level failure so a retry lands on a healthy
// stream. Deadline expiries and cancellations are connection-level for
// retry classification but leave the pipelined connection usable, so the
// connection is kept.
func (r *Remote) do(fn func(c *transport.Client) error) error {
	s, err := r.acquire()
	if err != nil {
		return err
	}
	err = fn(s.c)
	s.inflight.Add(-1)
	if err != nil && transport.IsConnError(err) &&
		!errors.Is(err, context.DeadlineExceeded) && !errors.Is(err, context.Canceled) {
		r.drop(s)
	}
	return err
}

// Ping implements Node.
func (r *Remote) Ping(ctx context.Context) error {
	return r.do(func(c *transport.Client) error { return c.Ping(ctx) })
}

// SecRecBatch implements Node.
func (r *Remote) SecRecBatch(ctx context.Context, ts []*core.Trapdoor) ([][]uint64, [][][]byte, error) {
	var ids [][]uint64
	var profiles [][][]byte
	err := r.do(func(c *transport.Client) error {
		var err error
		ids, profiles, err = c.SecRecBatch(ctx, ts)
		return err
	})
	return ids, profiles, err
}

// FetchProfiles implements Node.
func (r *Remote) FetchProfiles(ids []uint64) ([][]byte, error) {
	var profiles [][]byte
	err := r.do(func(c *transport.Client) error {
		var err error
		profiles, err = c.FetchProfiles(context.TODO(), ids)
		return err
	})
	return profiles, err
}

// FetchProfilesSparse implements Node.
func (r *Remote) FetchProfilesSparse(ids []uint64) ([][]byte, error) {
	var profiles [][]byte
	err := r.do(func(c *transport.Client) error {
		var err error
		profiles, err = c.FetchProfilesSparse(context.TODO(), ids)
		return err
	})
	return profiles, err
}

// PutProfiles implements Node.
func (r *Remote) PutProfiles(profiles map[uint64][]byte) error {
	return r.do(func(c *transport.Client) error { return c.PutProfiles(context.TODO(), profiles) })
}

// DeleteProfile implements Node.
func (r *Remote) DeleteProfile(id uint64) error {
	return r.do(func(c *transport.Client) error { return c.DeleteProfile(context.TODO(), id) })
}

// InstallIndex implements Node.
func (r *Remote) InstallIndex(idx *core.Index) error {
	return r.do(func(c *transport.Client) error { return c.InstallIndex(context.TODO(), idx) })
}

// InstallDynIndex implements Node.
func (r *Remote) InstallDynIndex(idx *core.DynIndex) error {
	return r.do(func(c *transport.Client) error { return c.InstallDynIndex(context.TODO(), idx) })
}

// FetchBuckets implements core.BucketStore.
func (r *Remote) FetchBuckets(refs []core.BucketRef) ([]core.DynBucket, error) {
	var buckets []core.DynBucket
	err := r.do(func(c *transport.Client) error {
		var err error
		buckets, err = c.FetchBuckets(context.TODO(), refs)
		return err
	})
	return buckets, err
}

// StoreBuckets implements core.BucketStore.
func (r *Remote) StoreBuckets(refs []core.BucketRef, buckets []core.DynBucket) error {
	return r.do(func(c *transport.Client) error { return c.StoreBuckets(context.TODO(), refs, buckets) })
}

// Version implements ReplicaNode.
func (r *Remote) Version(ctx context.Context) (uint64, error) {
	var v uint64
	err := r.do(func(c *transport.Client) error {
		var err error
		v, err = c.Version(ctx)
		return err
	})
	return v, err
}

// ApplyVersion implements ReplicaNode.
func (r *Remote) ApplyVersion(v uint64) error {
	return r.do(func(c *transport.Client) error { return c.ApplyVersion(context.TODO(), v) })
}

// StoreBucketsVersioned implements ReplicaNode.
func (r *Remote) StoreBucketsVersioned(refs []core.BucketRef, buckets []core.DynBucket, v uint64) error {
	return r.do(func(c *transport.Client) error { return c.StoreBucketsVersioned(context.TODO(), refs, buckets, v) })
}

// ProfileIDs implements ReplicaNode.
func (r *Remote) ProfileIDs() ([]uint64, error) {
	var ids []uint64
	err := r.do(func(c *transport.Client) error {
		var err error
		ids, err = c.ProfileIDs(context.TODO())
		return err
	})
	return ids, err
}

// Traffic returns the cumulative serialized traffic summed over the live
// pooled connections (a dropped connection's traffic is forgotten).
func (r *Remote) Traffic() (sent, received int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, s := range r.slots {
		if s == nil {
			continue
		}
		tx, rx := s.c.Traffic()
		sent += tx
		received += rx
	}
	return sent, received
}
