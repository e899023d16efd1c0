package pisd

import (
	"context"
	"fmt"

	"pisd/internal/frontend"
	"pisd/internal/groups"
	"pisd/internal/shard"
)

// SystemConfig parameterizes an in-process System.
type SystemConfig struct {
	// Frontend configures keys, LSH and index parameters.
	Frontend FrontendConfig
}

// DefaultSystemConfig returns the paper's default operating point for the
// given profile dimensionality (vocabulary size).
func DefaultSystemConfig(dim int) SystemConfig {
	return SystemConfig{Frontend: frontend.DefaultConfig(dim)}
}

// System wires a Frontend and an in-process Cloud together: the shortest
// path from profiles to private recommendations. Production deployments
// run the two entities as separate processes (see CloudServer/CloudClient
// and examples/distributed); System exists for embedding, tests and
// experiments.
type System struct {
	// SF is the trusted front end; CS the untrusted cloud.
	SF *Frontend
	CS *Cloud
	// pool serves CS to SF as the one-node case of the shard fleet.
	pool *shard.Pool
}

// NewSystem creates the pair.
func NewSystem(cfg SystemConfig) (*System, error) {
	sf, err := NewFrontend(cfg.Frontend)
	if err != nil {
		return nil, fmt.Errorf("pisd: %w", err)
	}
	cs := NewCloud()
	pool, err := shard.NewPool(shard.DefaultConfig(), shard.NewLocal(cs))
	if err != nil {
		return nil, fmt.Errorf("pisd: %w", err)
	}
	return &System{SF: sf, CS: cs, pool: pool}, nil
}

// AddProfiles performs service frontend initialization over the uploads:
// it builds the secure index, outsources it together with the encrypted
// profiles to the cloud, and discards the plaintext.
func (s *System) AddProfiles(uploads []Upload) error {
	idx, encProfiles, err := s.SF.BuildIndex(uploads)
	if err != nil {
		return fmt.Errorf("pisd: add profiles: %w", err)
	}
	s.CS.SetIndex(idx)
	s.CS.PutProfiles(encProfiles)
	return nil
}

// Discover returns the top-k recommended users for a target profile via
// the full privacy-preserving flow (trapdoor → SecRec at the cloud →
// decrypt → distance ranking).
func (s *System) Discover(targetProfile []float64, k int) ([]Match, error) {
	return s.DiscoverFor(0, targetProfile, k)
}

// DiscoverFor is Discover for an indexed user, excluding the user's own
// identifier from the results.
func (s *System) DiscoverFor(userID uint64, targetProfile []float64, k int) ([]Match, error) {
	matches, _, err := s.SF.Discover(context.TODO(), s.pool, targetProfile, k, userID)
	return matches, err
}

// DiscoverFoF composes discovery with friend-of-friend boosting over a
// social graph.
func (s *System) DiscoverFoF(graph *SocialGraph, userID uint64, targetProfile []float64, k int) ([]Match, error) {
	matches, _, err := s.SF.DiscoverFoF(context.TODO(), s.pool, graph, userID, targetProfile, k)
	return matches, err
}

// DiscoverGroups implements the paper's group-discovery application: it
// runs the privacy-preserving top-k discovery for every given member and
// clusters the resulting mutual neighbourhoods into social groups. The
// cloud observes only the ordinary per-user trapdoor queries.
func (s *System) DiscoverGroups(memberProfiles map[uint64][]float64, k int, opts GroupOptions) ([]Group, error) {
	neighbors := make(map[uint64][]GroupNeighbor, len(memberProfiles))
	for id, profile := range memberProfiles {
		matches, err := s.DiscoverFor(id, profile, k)
		if err != nil {
			return nil, fmt.Errorf("pisd: group discovery for %d: %w", id, err)
		}
		ns := make([]GroupNeighbor, len(matches))
		for i, m := range matches {
			ns[i] = GroupNeighbor{ID: m.ID, Distance: m.Distance}
		}
		neighbors[id] = ns
	}
	return groups.Discover(neighbors, opts)
}
