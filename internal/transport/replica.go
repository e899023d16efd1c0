package transport

import (
	"context"

	"pisd/internal/core"
)

// Replication methods of the wire protocol: the version/repair surface a
// replicated front end uses to track, compare and re-sync per-replica
// write state (see internal/cloud/replica.go for the server semantics).
const (
	MethodVersion    = "Version"
	MethodSetVersion = "SetVersion"
	MethodProfileIDs = "ProfileIDs"
)

// Version returns the server's last recorded replication write version —
// the probe a health checker uses to detect a replica that restarted
// (version 0) or missed writes.
func (c *Client) Version(ctx context.Context) (uint64, error) {
	resp, err := c.roundTrip(ctx, &Request{Method: MethodVersion})
	if err != nil {
		return 0, err
	}
	return resp.Version, nil
}

// ApplyVersion records a write version on the server (monotonic max).
func (c *Client) ApplyVersion(ctx context.Context, v uint64) error {
	_, err := c.roundTrip(ctx, &Request{Method: MethodSetVersion, Version: v})
	return err
}

// StoreBucketsVersioned stores buckets and records the write version in
// one atomic exchange, so a concurrent version probe never observes the
// version ahead of the bucket data.
func (c *Client) StoreBucketsVersioned(ctx context.Context, refs []core.BucketRef, buckets []core.DynBucket, v uint64) error {
	_, err := c.roundTrip(ctx, &Request{Method: MethodStoreBuckets, Refs: refs, Buckets: buckets, Version: v})
	return err
}

// ProfileIDs lists the identifiers of every encrypted profile the server
// stores, ascending — the repair endpoint for mirroring profile stores.
func (c *Client) ProfileIDs(ctx context.Context) ([]uint64, error) {
	resp, err := c.roundTrip(ctx, &Request{Method: MethodProfileIDs})
	if err != nil {
		return nil, err
	}
	return resp.IDs, nil
}
