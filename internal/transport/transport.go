// Package transport puts the paper's three-entity architecture on a real
// network: a framed, request-ID-multiplexed protocol over TCP exposing the
// cloud server's surface (batched SecRec discovery, encrypted profile and image
// storage, dynamic bucket fetch/store) to remote front ends and user
// clients.
//
// Wire format: every message is one length-prefixed frame — a 4-byte
// big-endian payload length followed by the gob bytes of a request or
// response envelope carrying a connection-unique request ID. Each direction
// of a connection is one persistent gob stream chunked into those frames
// (type descriptions travel once, encode/decode buffers stay warm across
// messages), owned by a single writer and a single reader goroutine.
// Because responses are dispatched by ID, many callers can pipeline
// requests on one connection concurrently: the client writes frames as
// callers arrive and its reader goroutine routes each response to the
// caller that requested it, in whatever order the server finishes them. The
// server, symmetrically, decodes frames as they arrive and executes each
// request on a bounded per-connection worker pool instead of one-at-a-time,
// so a single connection saturates the hardware rather than sustaining at
// most one request per round trip.
//
// The interesting security properties (constant bandwidth per discovery,
// one round per operation) are those of the scheme, not of the wire format.
// Frame sizes are exposed so the bandwidth experiments measure real
// serialized traffic.
package transport

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"pisd/internal/cloud"
	"pisd/internal/core"
)

// ConnError marks a connection-level failure: a failed dial, a dead or
// half-closed connection, a corrupt frame, or a timed-out / cancelled call.
// Callers distinguishing transient transport faults from application errors
// — e.g. a shard pool deciding whether to retry — should test with
// IsConnError. A timed-out or cancelled call does NOT invalidate the
// connection: the multiplexed stream skips the late response by its request
// ID, so other in-flight and future calls proceed undisturbed.
type ConnError struct {
	// Op is the failing step: "dial", "call", "send" or "receive".
	Op string
	// Err is the underlying network, codec or context error.
	Err error
}

func (e *ConnError) Error() string { return fmt.Sprintf("transport: %s: %v", e.Op, e.Err) }

// Unwrap exposes the underlying error to errors.Is/As (net.Error,
// context.DeadlineExceeded, io.ErrUnexpectedEOF, ...).
func (e *ConnError) Unwrap() error { return e.Err }

// IsConnError reports whether err stems from the connection rather than
// from the remote application logic. Connection errors are retryable;
// application errors (RemoteError) are not.
func IsConnError(err error) bool {
	var ce *ConnError
	return errors.As(err, &ce)
}

// RemoteError is an error the server's application logic reported inside a
// well-formed response frame (e.g. "cloud: no index installed"). The
// connection remains healthy after a RemoteError.
type RemoteError struct {
	// Msg is the server-side error string.
	Msg string
}

func (e *RemoteError) Error() string { return "transport: remote: " + e.Msg }

// Method names of the wire protocol.
const (
	MethodSecRecBatch   = "SecRecBatch"
	MethodFetchProfiles = "FetchProfiles"
	// MethodFetchProfilesSparse is FetchProfiles with gap tolerance: an
	// unknown identifier answers as an empty entry instead of failing the
	// batch (the subscription re-score fan-out's read).
	MethodFetchProfilesSparse = "FetchProfilesSparse"
	MethodPutProfile          = "PutProfile"
	MethodDeleteProfile       = "DeleteProfile"
	MethodFetchBuckets        = "FetchBuckets"
	MethodStoreBuckets        = "StoreBuckets"
	MethodStoreImage          = "StoreImage"
	MethodFetchImages         = "FetchImages"
	MethodPing                = "Ping"
	MethodInstallIndex        = "InstallIndex"
	MethodInstallDyn          = "InstallDynIndex"
)

// Request is the single wire request envelope body.
type Request struct {
	Method    string
	Trapdoors []*core.Trapdoor
	Refs      []core.BucketRef
	Buckets   []core.DynBucket
	IDs       []uint64
	UserID    uint64
	Blob      []byte
	Profiles  map[uint64][]byte
	Index     *core.Index
	DynIndex  *core.DynIndex
	// Version carries a replication write version: on SetVersion it is the
	// version to record, on StoreBuckets a non-zero value selects the
	// versioned store (buckets + version applied atomically).
	Version uint64
}

// Response is the single wire response envelope body.
type Response struct {
	Err           string
	IDs           []uint64
	Profiles      [][]byte
	Buckets       []core.DynBucket
	Blobs         [][]byte
	BatchIDs      [][]uint64
	BatchProfiles [][][]byte
	// Version answers a Version request: the server's last recorded
	// replication write version.
	Version uint64
}

// reqEnvelope frames one request with its connection-unique ID.
type reqEnvelope struct {
	ID  uint64
	Req *Request
}

// respEnvelope frames one response with the ID of the request it answers.
type respEnvelope struct {
	ID   uint64
	Resp *Response
}

const (
	frameHeader = 4
	// maxFrame bounds a single frame; an index install for millions of
	// users fits, a corrupt length prefix fails fast.
	maxFrame = 1 << 30
	// readBufSize sizes the connection read buffer; large discovery
	// responses arrive in few reads.
	readBufSize = 1 << 16
)

// frameWriter owns one direction of a connection: a persistent gob encoder
// writing into a reusable buffer whose contents ship as one length-prefixed
// frame per message. Reusing the encoder sends type descriptions once and
// keeps the buffer's capacity warm, so a steady stream of large responses
// costs one memcpy and one write each instead of regrowing encode state
// from zero. Safe for concurrent use; an encode failure leaves the gob
// stream desynchronized, so callers must treat any error as fatal for the
// connection.
type frameWriter struct {
	mu  sync.Mutex
	w   io.Writer
	buf bytes.Buffer
	enc *gob.Encoder
}

func newFrameWriter(w io.Writer) *frameWriter {
	fw := &frameWriter{w: w}
	fw.enc = gob.NewEncoder(&fw.buf)
	return fw
}

// writeFrame encodes env and writes it as one frame, returning the wire
// bytes written.
func (fw *frameWriter) writeFrame(env interface{}) (int, error) {
	fw.mu.Lock()
	defer fw.mu.Unlock()
	fw.buf.Reset()
	fw.buf.Write(make([]byte, frameHeader))
	if err := fw.enc.Encode(env); err != nil {
		return 0, err
	}
	frame := fw.buf.Bytes()
	binary.BigEndian.PutUint32(frame[:frameHeader], uint32(len(frame)-frameHeader))
	return fw.w.Write(frame)
}

// frameReader strips the length prefixes off the incoming frame sequence
// and presents the payloads to a persistent gob decoder as one continuous
// byte stream, enforcing the frame size limit and counting consumed wire
// bytes. EOF at a frame boundary is a clean EOF; EOF inside a header or
// payload surfaces as io.ErrUnexpectedEOF.
type frameReader struct {
	r    *bufio.Reader
	left int   // payload bytes remaining in the current frame
	n    int64 // total wire bytes consumed, headers included
}

func newFrameReader(r io.Reader) *frameReader {
	return &frameReader{r: bufio.NewReaderSize(r, readBufSize)}
}

func (fr *frameReader) Read(p []byte) (int, error) {
	for fr.left == 0 {
		var hdr [frameHeader]byte
		if _, err := io.ReadFull(fr.r, hdr[:]); err != nil {
			if err == io.ErrUnexpectedEOF {
				return 0, err // torn header
			}
			return 0, err // clean EOF between frames
		}
		n := binary.BigEndian.Uint32(hdr[:])
		if n > maxFrame {
			return 0, fmt.Errorf("frame of %d bytes exceeds limit", n)
		}
		fr.left = int(n)
		fr.n += frameHeader
	}
	if len(p) > fr.left {
		p = p[:fr.left]
	}
	n, err := fr.r.Read(p)
	fr.left -= n
	fr.n += int64(n)
	if err == io.EOF && fr.left > 0 {
		err = io.ErrUnexpectedEOF
	}
	return n, err
}

// consumed returns the total wire bytes read so far.
func (fr *frameReader) consumed() int64 { return fr.n }

// Server serves a cloud.Server over TCP.
type Server struct {
	cs      *cloud.Server
	workers int

	mu       sync.Mutex
	listener net.Listener
	conns    map[net.Conn]struct{}
	wg       sync.WaitGroup
	closed   bool
}

// NewServer wraps a cloud server. Each connection executes its pipelined
// requests on a bounded worker pool sized max(4, GOMAXPROCS); tune with
// SetWorkersPerConn before Listen.
func NewServer(cs *cloud.Server) *Server {
	workers := runtime.GOMAXPROCS(0)
	if workers < 4 {
		workers = 4
	}
	tmet.srvWorkers.Set(int64(workers))
	return &Server{cs: cs, workers: workers, conns: make(map[net.Conn]struct{})}
}

// SetWorkersPerConn bounds how many of one connection's pipelined requests
// execute concurrently (excess requests queue by backpressure: the
// connection's frames stop being read). Call before Listen. The effective
// value is surfaced as the transport.server.workers_per_conn gauge.
func (s *Server) SetWorkersPerConn(n int) {
	if n > 0 {
		s.workers = n
		tmet.srvWorkers.Set(int64(n))
	}
}

// Listen binds the given address ("127.0.0.1:0" for an ephemeral port) and
// starts accepting connections until Shutdown. It returns the bound
// address immediately; serving continues in background goroutines owned by
// the server.
func (s *Server) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("transport: listen: %w", err)
	}
	if err := s.Serve(ln); err != nil {
		return "", err
	}
	return ln.Addr().String(), nil
}

// Serve starts accepting connections from an already-bound listener until
// Shutdown; the server owns ln from here on and closes it at shutdown.
// Like Listen it returns immediately — serving continues in background
// goroutines. This is the hook fault-injection harnesses use to interpose
// a wrapped listener between the network and the server.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return errors.New("transport: server already shut down")
	}
	s.listener = ln
	s.mu.Unlock()

	s.wg.Add(1)
	go s.acceptLoop(ln)
	return nil
}

func (s *Server) acceptLoop(ln net.Listener) {
	defer s.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		tmet.srvConns.Add(1)
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

// serveConn decodes request frames as they arrive and hands each to the
// connection's worker pool; responses are written back in completion
// order, matched to callers by request ID.
func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		tmet.srvConns.Add(-1)
	}()
	var (
		wg   sync.WaitGroup
		sem  = make(chan struct{}, s.workers)
		fr   = newFrameReader(conn)
		dec  = gob.NewDecoder(fr)
		fw   = newFrameWriter(conn)
		dead atomic.Bool
		read int64
	)
	defer wg.Wait()
	for {
		var env reqEnvelope
		if err := dec.Decode(&env); err != nil {
			return // connection closed or corrupt stream
		}
		tmet.srvFrames.Inc()
		tmet.srvBytesIn.Add(fr.consumed() - read)
		read = fr.consumed()
		if dead.Load() {
			return
		}
		sem <- struct{}{}
		wg.Add(1)
		go func(env reqEnvelope) {
			defer wg.Done()
			defer func() { <-sem }()
			resp := s.dispatch(env.Req)
			if _, err := fw.writeFrame(&respEnvelope{ID: env.ID, Resp: resp}); err != nil {
				dead.Store(true)
				conn.Close()
			}
		}(env)
	}
}

// dispatch executes one request against the cloud server.
func (s *Server) dispatch(req *Request) *Response {
	resp := &Response{}
	if req == nil {
		resp.Err = "transport: empty request envelope"
		return resp
	}
	switch req.Method {
	case MethodPing:
	case MethodInstallIndex:
		if req.Index == nil {
			resp.Err = "transport: missing index"
			break
		}
		s.cs.SetIndex(req.Index)
	case MethodInstallDyn:
		if req.DynIndex == nil {
			resp.Err = "transport: missing dynamic index"
			break
		}
		s.cs.SetDynIndex(req.DynIndex)
	case MethodSecRecBatch:
		ids, profiles, err := s.cs.SecRecBatch(req.Trapdoors)
		if err != nil {
			resp.Err = err.Error()
			break
		}
		resp.BatchIDs = ids
		resp.BatchProfiles = profiles
	case MethodFetchProfiles:
		profiles, err := s.cs.FetchProfiles(req.IDs)
		if err != nil {
			resp.Err = err.Error()
			break
		}
		resp.Profiles = profiles
	case MethodFetchProfilesSparse:
		profiles, err := s.cs.FetchProfilesSparse(req.IDs)
		if err != nil {
			resp.Err = err.Error()
			break
		}
		resp.Profiles = profiles
	case MethodPutProfile:
		for id, ct := range req.Profiles {
			s.cs.PutProfile(id, ct)
		}
	case MethodDeleteProfile:
		s.cs.DeleteProfile(req.UserID)
	case MethodFetchBuckets:
		buckets, err := s.cs.FetchBuckets(req.Refs)
		if err != nil {
			resp.Err = err.Error()
			break
		}
		resp.Buckets = buckets
	case MethodStoreBuckets:
		if req.Version > 0 {
			if err := s.cs.StoreBucketsVersioned(req.Refs, req.Buckets, req.Version); err != nil {
				resp.Err = err.Error()
			}
			break
		}
		if err := s.cs.StoreBuckets(req.Refs, req.Buckets); err != nil {
			resp.Err = err.Error()
		}
	case MethodVersion:
		resp.Version = s.cs.Version()
	case MethodSetVersion:
		s.cs.ApplyVersion(req.Version)
	case MethodProfileIDs:
		resp.IDs = s.cs.ProfileIDs()
	case MethodStoreImage:
		s.cs.StoreImages(req.UserID, req.Blob)
	case MethodFetchImages:
		resp.Blobs = s.cs.Images(req.UserID)
	default:
		resp.Err = fmt.Sprintf("transport: unknown method %q", req.Method)
	}
	return resp
}

// Shutdown stops accepting, closes every connection and waits for all
// serving goroutines to exit.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.closed = true
	if s.listener != nil {
		s.listener.Close()
	}
	for conn := range s.conns {
		conn.Close()
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("transport: shutdown: %w", ctx.Err())
	}
}

// Client is a remote handle to a cloud server. It is safe for concurrent
// use and pipelines: any number of callers share the one connection, each
// call writes its frame immediately and waits only for its own response,
// dispatched by request ID from a single reader goroutine.
type Client struct {
	conn net.Conn
	fw   *frameWriter // the connection's outbound gob stream

	mu      sync.Mutex
	pending map[uint64]chan *Response
	nextID  uint64
	timeout time.Duration
	broken  error // set once the connection is unusable; sticky

	// sentBytes / recvBytes accumulate exact framed wire traffic for the
	// bandwidth experiments.
	sentBytes atomic.Int64
	recvBytes atomic.Int64
}

// Dial connects to a transport server. A failed dial returns a ConnError.
func Dial(addr string) (*Client, error) {
	return DialWith(addr, nil)
}

// Dialer opens the raw connection a client multiplexes its calls over.
// It exists so tests can interpose fault-injecting wrappers between the
// client and the network; nil means plain net.Dial("tcp", addr).
type Dialer func(addr string) (net.Conn, error)

// DialWith is Dial with an injectable connection factory. Errors from the
// dialer are wrapped as ConnErrors so pool retry logic treats a failed
// dial like any other connection-level fault.
func DialWith(addr string, dial Dialer) (*Client, error) {
	if dial == nil {
		dial = func(addr string) (net.Conn, error) { return net.Dial("tcp", addr) }
	}
	tmet.dials.Inc()
	conn, err := dial(addr)
	if err != nil {
		tmet.dialErrors.Inc()
		return nil, &ConnError{Op: "dial", Err: err}
	}
	c := &Client{conn: conn, fw: newFrameWriter(conn), pending: make(map[uint64]chan *Response)}
	go c.readLoop()
	return c, nil
}

// Close tears down the connection; in-flight calls fail with a ConnError.
func (c *Client) Close() error { return c.conn.Close() }

// SetTimeout bounds how long every subsequent call waits for its response;
// zero disables the bound. Each call's context deadline composes with
// this connection-global bound: the earlier deadline wins. A timed-out call fails with a ConnError but leaves the
// multiplexed connection fully usable — the late response is discarded by
// its request ID when it eventually arrives.
func (c *Client) SetTimeout(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.timeout = d
}

// Traffic returns the cumulative framed request and response bytes.
func (c *Client) Traffic() (sent, received int64) {
	return c.sentBytes.Load(), c.recvBytes.Load()
}

// readLoop is the single response reader: it decodes response frames as
// the server finishes requests (not necessarily in request order) and
// routes each to the waiting caller by ID. Responses whose caller gave up
// (timeout or cancellation) find no pending entry and are dropped.
func (c *Client) readLoop() {
	fr := newFrameReader(c.conn)
	dec := gob.NewDecoder(fr)
	for {
		var env respEnvelope
		if err := dec.Decode(&env); err != nil {
			c.fail(&ConnError{Op: "receive", Err: err})
			return
		}
		tmet.framesIn.Inc()
		tmet.bytesIn.Add(fr.consumed() - c.recvBytes.Load())
		c.recvBytes.Store(fr.consumed())
		c.mu.Lock()
		ch, ok := c.pending[env.ID]
		if ok {
			delete(c.pending, env.ID)
		}
		c.mu.Unlock()
		if ok {
			ch <- env.Resp // buffered; never blocks
		} else {
			tmet.lateDrops.Inc()
		}
	}
}

// fail marks the connection broken and releases every waiting caller.
func (c *Client) fail(err error) {
	c.mu.Lock()
	if c.broken == nil {
		c.broken = err
		tmet.connFails.Inc()
	}
	waiting := c.pending
	c.pending = make(map[uint64]chan *Response)
	c.mu.Unlock()
	for _, ch := range waiting {
		close(ch)
	}
	c.conn.Close()
}

// forget abandons a pending call (its caller stopped waiting). A response
// arriving later is skipped by ID in readLoop.
func (c *Client) forget(id uint64) {
	c.mu.Lock()
	delete(c.pending, id)
	c.mu.Unlock()
}

// roundTrip performs one pipelined exchange bounded by ctx and the
// connection-global timeout (earlier wins). The request frame is written
// immediately — concurrent calls interleave on the connection — and the
// caller waits only for its own response. Expiry or cancellation abandons
// the call without disturbing the connection.
func (c *Client) roundTrip(ctx context.Context, req *Request) (*Response, error) {
	if err := ctx.Err(); err != nil {
		return nil, &ConnError{Op: "call", Err: err}
	}
	c.mu.Lock()
	if c.broken != nil {
		err := c.broken
		c.mu.Unlock()
		return nil, err
	}
	id := c.nextID
	c.nextID++
	ch := make(chan *Response, 1)
	c.pending[id] = ch
	timeout := c.timeout
	c.mu.Unlock()
	tmet.inflight.Add(1)
	defer tmet.inflight.Add(-1)

	n, werr := c.fw.writeFrame(&reqEnvelope{ID: id, Req: req})
	if werr != nil {
		// Both encode and write failures poison the outbound gob stream;
		// the connection cannot be trusted for further calls.
		c.forget(id)
		c.fail(&ConnError{Op: "send", Err: werr})
		return nil, &ConnError{Op: "send", Err: werr}
	}
	c.sentBytes.Add(int64(n))
	tmet.framesOut.Inc()
	tmet.bytesOut.Add(int64(n))

	var timer *time.Timer
	var expired <-chan time.Time
	if timeout > 0 {
		timer = time.NewTimer(timeout)
		defer timer.Stop()
		expired = timer.C
	}
	select {
	case resp, ok := <-ch:
		if !ok {
			c.mu.Lock()
			err := c.broken
			c.mu.Unlock()
			return nil, err
		}
		if resp.Err != "" {
			return nil, &RemoteError{Msg: resp.Err}
		}
		return resp, nil
	case <-ctx.Done():
		c.forget(id)
		tmet.timeouts.Inc()
		return nil, &ConnError{Op: "call", Err: ctx.Err()}
	case <-expired:
		c.forget(id)
		tmet.timeouts.Inc()
		return nil, &ConnError{Op: "call", Err: context.DeadlineExceeded}
	}
}

// InstallIndex outsources a freshly built static index to the cloud.
func (c *Client) InstallIndex(ctx context.Context, idx *core.Index) error {
	_, err := c.roundTrip(ctx, &Request{Method: MethodInstallIndex, Index: idx})
	return err
}

// InstallDynIndex outsources a dynamic index to the cloud.
func (c *Client) InstallDynIndex(ctx context.Context, idx *core.DynIndex) error {
	_, err := c.roundTrip(ctx, &Request{Method: MethodInstallDyn, DynIndex: idx})
	return err
}

// Ping checks liveness.
func (c *Client) Ping(ctx context.Context) error {
	_, err := c.roundTrip(ctx, &Request{Method: MethodPing})
	return err
}

// maxBatchPerRPC caps how many trapdoors ride in a single SecRecBatch
// wire exchange. Each recalled profile is a few hundred KB of ciphertext,
// and gob allocates a fresh buffer for every message it reads — once a
// response message crosses ~10 MB the stdlib additionally grows that
// buffer by chunked appends, copying the payload several times over.
// Keeping messages bounded and pipelining the sub-batches concurrently
// on the multiplexed connection is strictly faster than one giant frame.
const maxBatchPerRPC = 8

// SecRecBatch resolves q trapdoors remotely, bounded by ctx, one
// result per trapdoor. Large batches are split into sub-batches of
// maxBatchPerRPC queries issued concurrently over the shared connection,
// so the server streams bounded response messages instead of one giant
// frame.
func (c *Client) SecRecBatch(ctx context.Context, ts []*core.Trapdoor) ([][]uint64, [][][]byte, error) {
	if len(ts) <= maxBatchPerRPC {
		resp, err := c.roundTrip(ctx, &Request{Method: MethodSecRecBatch, Trapdoors: ts})
		if err != nil {
			return nil, nil, err
		}
		return resp.BatchIDs, resp.BatchProfiles, nil
	}
	ids := make([][]uint64, len(ts))
	profiles := make([][][]byte, len(ts))
	var (
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
	)
	for lo := 0; lo < len(ts); lo += maxBatchPerRPC {
		hi := lo + maxBatchPerRPC
		if hi > len(ts) {
			hi = len(ts)
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			resp, err := c.roundTrip(ctx, &Request{Method: MethodSecRecBatch, Trapdoors: ts[lo:hi]})
			if err != nil {
				errOnce.Do(func() { firstErr = err })
				return
			}
			if len(resp.BatchIDs) != hi-lo || len(resp.BatchProfiles) != hi-lo {
				errOnce.Do(func() {
					firstErr = fmt.Errorf("transport: sub-batch of %d queries answered with %d/%d results",
						hi-lo, len(resp.BatchIDs), len(resp.BatchProfiles))
				})
				return
			}
			copy(ids[lo:hi], resp.BatchIDs)
			copy(profiles[lo:hi], resp.BatchProfiles)
		}(lo, hi)
	}
	wg.Wait()
	if firstErr != nil {
		return nil, nil, firstErr
	}
	return ids, profiles, nil
}

// FetchProfiles returns the encrypted profiles of ids; any unknown id
// fails the whole batch.
func (c *Client) FetchProfiles(ctx context.Context, ids []uint64) ([][]byte, error) {
	resp, err := c.roundTrip(ctx, &Request{Method: MethodFetchProfiles, IDs: ids})
	if err != nil {
		return nil, err
	}
	return resp.Profiles, nil
}

// FetchProfilesSparse is FetchProfiles with gap tolerance: unknown
// identifiers answer as empty entries instead of failing the batch. Gob
// flattens a nil entry to an empty one, so absence is signalled by
// len(out[i]) == 0 at every tier (present ciphertexts are never empty).
func (c *Client) FetchProfilesSparse(ctx context.Context, ids []uint64) ([][]byte, error) {
	resp, err := c.roundTrip(ctx, &Request{Method: MethodFetchProfilesSparse, IDs: ids})
	if err != nil {
		return nil, err
	}
	// A sparse response may drop trailing empty entries in transit;
	// restore request alignment.
	profiles := resp.Profiles
	for len(profiles) < len(ids) {
		profiles = append(profiles, nil)
	}
	return profiles, nil
}

// PutProfiles uploads encrypted profiles.
func (c *Client) PutProfiles(ctx context.Context, profiles map[uint64][]byte) error {
	_, err := c.roundTrip(ctx, &Request{Method: MethodPutProfile, Profiles: profiles})
	return err
}

// DeleteProfile removes an encrypted profile.
func (c *Client) DeleteProfile(ctx context.Context, id uint64) error {
	_, err := c.roundTrip(ctx, &Request{Method: MethodDeleteProfile, UserID: id})
	return err
}

// FetchBuckets fetches dynamic buckets by reference.
func (c *Client) FetchBuckets(ctx context.Context, refs []core.BucketRef) ([]core.DynBucket, error) {
	resp, err := c.roundTrip(ctx, &Request{Method: MethodFetchBuckets, Refs: refs})
	if err != nil {
		return nil, err
	}
	return resp.Buckets, nil
}

// StoreBuckets writes re-sealed dynamic buckets back.
func (c *Client) StoreBuckets(ctx context.Context, refs []core.BucketRef, buckets []core.DynBucket) error {
	_, err := c.roundTrip(ctx, &Request{Method: MethodStoreBuckets, Refs: refs, Buckets: buckets})
	return err
}

// StoreImage uploads one encrypted image blob for a user.
func (c *Client) StoreImage(ctx context.Context, userID uint64, blob []byte) error {
	_, err := c.roundTrip(ctx, &Request{Method: MethodStoreImage, UserID: userID, Blob: blob})
	return err
}

// FetchImages downloads a user's encrypted images.
func (c *Client) FetchImages(ctx context.Context, userID uint64) ([][]byte, error) {
	resp, err := c.roundTrip(ctx, &Request{Method: MethodFetchImages, UserID: userID})
	if err != nil {
		return nil, err
	}
	return resp.Blobs, nil
}
