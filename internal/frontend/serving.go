package frontend

import (
	"context"
	"fmt"
	"time"

	"pisd/internal/obs"
)

// ServingConfig tunes the multi-core serving path: batch coalescing,
// admission control and the search-pattern result cache.
type ServingConfig struct {
	// MaxBatch bounds how many coalesced queries share one SecRecBatch
	// flush; <= 0 defaults to 16.
	MaxBatch int
	// Window bounds how long a queued query waits for the next flush;
	// <= 0 defaults to 200µs.
	Window time.Duration
	// MaxInflight bounds admitted concurrent discoveries; excess calls
	// are rejected with ErrOverloaded. <= 0 means unbounded.
	MaxInflight int
	// CacheEntries bounds the result cache; <= 0 disables caching.
	CacheEntries int
}

// DefaultServingConfig returns the serving defaults: 16-query flushes, a
// 200µs coalescing window, 256 admitted queries and a 4096-entry cache.
func DefaultServingConfig() ServingConfig {
	return ServingConfig{
		MaxBatch:     16,
		Window:       200 * time.Microsecond,
		MaxInflight:  256,
		CacheEntries: 4096,
	}
}

// Serving is the static scheme's high-throughput discovery path: an
// admission gate in front of a trapdoor-keyed result cache in front of an
// adaptive batch coalescer over the shard fan-out. Concurrent Discover
// calls share SecRecBatch flushes; repeated search patterns are answered
// entirely at the frontend with zero cloud traffic (the cache key is the
// trapdoor the cloud would have seen — already-admitted leakage, DESIGN.md
// §15). Safe for concurrent use.
type Serving struct {
	f     *Frontend
	co    *Coalescer
	cache *ResultCache
	gate  *AdmissionGate
}

// NewServing builds the serving path over a sharded fan-out (shard.Pool
// implements FanoutBatchServer; a single cloud is a one-node pool).
func (f *Frontend) NewServing(pool FanoutBatchServer, cfg ServingConfig) (*Serving, error) {
	if pool == nil {
		return nil, fmt.Errorf("frontend: serving needs a fan-out server")
	}
	return &Serving{
		f:     f,
		co:    NewCoalescer(pool, cfg.MaxBatch, cfg.Window),
		cache: NewResultCache(cfg.CacheEntries),
		gate:  NewAdmissionGate(cfg.MaxInflight),
	}, nil
}

// Cache exposes the serving path's result cache (nil when disabled).
func (s *Serving) Cache() *ResultCache { return s.cache }

// Discover runs one discovery through the serving path: admission →
// trapdoor → cache → coalesced fan-out → decrypt → exact distance
// ranking. The matches are byte-identical to Frontend.Discover over the
// same healthy shards: a cache hit replays the exact candidate set the
// cloud returned for this trapdoor, and ranking is deterministic.
// Overload returns ErrOverloaded before any work is done.
func (s *Serving) Discover(ctx context.Context, targetProfile []float64, k int, excludeID uint64) ([]Match, bool, error) {
	if err := s.gate.Acquire(); err != nil {
		return nil, false, err
	}
	defer s.gate.Release()
	var sp obs.Span
	sp.Start()
	td, err := s.f.Trapdoor(targetProfile)
	if err != nil {
		return nil, false, err
	}
	sp.Mark("trapdoor", fmet.trapdoorNs)
	key := trapdoorKey(td)
	if ids, vecs, ok := s.cache.Get(key); ok {
		fmet.cacheHits.Inc()
		matches, err := s.f.rankPlain(targetProfile, ids, vecs, k, excludeID, &sp)
		if err != nil {
			return nil, false, err
		}
		sp.Finish(fmet.discoverNs)
		fmet.discoveries.Inc()
		return matches, false, nil
	}
	fmet.cacheMisses.Inc()
	ids, encProfiles, partial, err := s.co.SecRec(ctx, td)
	if err != nil {
		return nil, false, fmt.Errorf("frontend: serving discovery request: %w", err)
	}
	sp.Mark("fanout", fmet.fanoutNs)
	vecs, err := s.f.decryptProfiles(ids, encProfiles)
	if err != nil {
		return nil, false, err
	}
	if !partial {
		// Partial answers are never cached: a recovered shard must not be
		// masked by a degraded cached result.
		s.cache.Put(key, nil, ids, vecs)
	}
	matches, err := s.f.rankPlain(targetProfile, ids, vecs, k, excludeID, &sp)
	if err != nil {
		return nil, false, err
	}
	sp.Finish(fmet.discoverNs)
	fmet.discoveries.Inc()
	if partial {
		fmet.partials.Inc()
	}
	return matches, partial, nil
}
