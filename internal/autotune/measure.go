package autotune

import (
	"context"
	"fmt"
	"sort"
	"time"

	"pisd/internal/baseline"
	"pisd/internal/cloud"
	"pisd/internal/frontend"
	"pisd/internal/obs"
	"pisd/internal/shard"
	"pisd/internal/vec"
)

// measureFrontier rebuilds the reference and every frontier point on the
// real secure stack and attaches real-unit measurements. A point whose
// build fails (e.g. the cuckoo placement is infeasible at the tuned table
// count) keeps its proxy numbers and records the error plus a one-line
// repro — it can no longer win.
func measureFrontier(env *sweepEnv, cfg Config, rep *Report) error {
	cfg.logf("autotune: measuring reference %s on the secure stack", rep.Reference.Candidate)
	m, err := measureCandidate(env, cfg, rep.Reference.Candidate)
	if err != nil {
		return fmt.Errorf("autotune: reference measurement failed: %w (%s)", err, Repro(cfg, rep.Reference.Candidate))
	}
	rep.Reference.Measured = m
	for i := range rep.Frontier {
		c := rep.Frontier[i].Candidate
		if c == rep.Reference.Candidate {
			rep.Frontier[i].Measured = m
			continue
		}
		cfg.logf("autotune: measuring %s (budget %d)", c, rep.Frontier[i].Budget)
		fm, err := measureCandidate(env, cfg, c)
		if err != nil {
			rep.Frontier[i].Err = err.Error()
			rep.Frontier[i].Repro = Repro(cfg, c)
			cfg.logf("autotune: %s infeasible: %v; %s", c, err, rep.Frontier[i].Repro)
			continue
		}
		rep.Frontier[i].Measured = fm
	}
	// Mirror measurements back into the full result list so the emitted
	// JSON is self-consistent.
	for i := range rep.Results {
		for j := range rep.Frontier {
			if rep.Results[i].Candidate == rep.Frontier[j].Candidate {
				rep.Results[i].Measured = rep.Frontier[j].Measured
				rep.Results[i].Err = rep.Frontier[j].Err
				rep.Results[i].Repro = rep.Frontier[j].Repro
			}
		}
	}
	return nil
}

// fallbackMeasureCap bounds how many extra secure-stack builds the
// fallback pass may attempt when no frontier point won.
const fallbackMeasureCap = 8

// measureFallback extends measurement past the proxy frontier when no
// frontier point produced a winner — the proxy skyline can be crowded out
// by configs that later miss the measured floors. Remaining feasible
// results cheaper than the reference are measured in (budget ascending,
// proxy recall descending) deterministic order; the first one holding both
// measured floors becomes the winner. Bounded at fallbackMeasureCap
// builds so a floor nothing can meet still terminates quickly.
func measureFallback(env *sweepEnv, cfg Config, rep *Report) error {
	refM := rep.Reference.Measured
	if refM == nil {
		return nil
	}
	recallFloor := refM.Recall - cfg.MaxRecallLoss
	accFloor := refM.Accuracy - cfg.MaxRecallLoss
	onFrontier := make(map[Candidate]bool, len(rep.Frontier))
	for _, r := range rep.Frontier {
		onFrontier[r.Candidate] = true
	}
	var pool []*Result
	for i := range rep.Results {
		r := &rep.Results[i]
		if r.Pruned || r.Err != "" || !r.Feasible || r.Measured != nil ||
			onFrontier[r.Candidate] || r.Budget >= rep.Reference.Budget {
			continue
		}
		pool = append(pool, r)
	}
	sort.Slice(pool, func(i, j int) bool {
		if pool[i].Budget != pool[j].Budget {
			return pool[i].Budget < pool[j].Budget
		}
		if pool[i].Recall != pool[j].Recall {
			return pool[i].Recall > pool[j].Recall
		}
		return pool[i].Candidate.less(pool[j].Candidate)
	})
	for measured, r := range pool {
		if measured >= fallbackMeasureCap {
			cfg.logf("autotune: fallback stopped after %d builds with no winner", measured)
			break
		}
		cfg.logf("autotune: fallback measuring %s (budget %d)", r.Candidate, r.Budget)
		m, err := measureCandidate(env, cfg, r.Candidate)
		if err != nil {
			r.Err = err.Error()
			r.Repro = Repro(cfg, r.Candidate)
			cfg.logf("autotune: %s infeasible: %v; %s", r.Candidate, err, r.Repro)
			continue
		}
		r.Measured = m
		if m.Recall >= recallFloor && m.Accuracy >= accFloor {
			w := *r
			rep.Winner = &w
			return nil
		}
	}
	return nil
}

// partitionDeployment is one partition's live slice of the measured
// deployment: its own front end (keys + family) and in-process cloud
// server, served as a one-node pool, with a private metrics registry.
type partitionDeployment struct {
	fe   *frontend.Frontend
	pool *shard.Pool
	reg  *obs.Registry
}

// measureCandidate builds candidate c's deployment over the sweep
// population — one (frontend, cloud.Server) pair per partition, exactly
// the production build path including the rehash loop — and measures
// secure-path recall, bucket traffic (from the live cloud.* counters),
// trapdoor cost, index bytes and serial end-to-end qps.
func measureCandidate(env *sweepEnv, cfg Config, c Candidate) (*Measurement, error) {
	groups := env.groups[c.Partitions]
	deps := make([]partitionDeployment, len(groups))
	meas := &Measurement{}

	buildStart := time.Now()
	for pi, members := range groups {
		fcfg := frontend.DefaultConfig(cfg.Dim)
		fcfg.LSH.Tables = c.Tables
		fcfg.LSH.Atoms = c.Atoms
		fcfg.LSH.Width = c.Width
		fcfg.ProbeRange = c.ProbeRange
		fcfg.MaxLoop = 2000
		fcfg.KeySeed = fmt.Sprintf("autotune-%d-p%d", cfg.Seed, pi)
		fe, err := frontend.New(fcfg)
		if err != nil {
			return nil, fmt.Errorf("partition %d: %w", pi, err)
		}
		uploads := make([]frontend.Upload, len(members))
		for i, m := range members {
			uploads[i] = frontend.Upload{ID: uint64(m) + 1, Profile: env.profiles[m]}
		}
		idx, encProfiles, err := fe.BuildIndex(uploads)
		if err != nil {
			return nil, fmt.Errorf("partition %d (%d users): %w", pi, len(members), err)
		}
		srv := cloud.New()
		reg := obs.NewRegistry()
		srv.SetRegistry(reg)
		srv.SetIndex(idx)
		srv.PutProfiles(encProfiles)
		pool, err := shard.NewPool(shard.DefaultConfig(), shard.NewLocal(srv))
		if err != nil {
			return nil, err
		}
		pool.SetRegistry(reg)
		deps[pi] = partitionDeployment{fe: fe, pool: pool, reg: reg}
		meas.IndexBytes += int64(idx.SizeBytes())
	}
	meas.BuildMS = float64(time.Since(buildStart).Microseconds()) / 1000

	// Trapdoor cost: mean per query, summed over partitions (a query
	// issues one trapdoor per partition).
	tdStart := time.Now()
	for _, q := range env.queries {
		for pi := range deps {
			if _, err := deps[pi].fe.Trapdoor(q); err != nil {
				return nil, fmt.Errorf("trapdoor: %w", err)
			}
		}
	}
	meas.TrapdoorUS = float64(time.Since(tdStart).Microseconds()) / float64(len(env.queries))

	// End-to-end serial discovery over the query workload; recall against
	// the brute-force ground truth (upload IDs are profile index + 1).
	var recallSum, accSum float64
	qStart := time.Now()
	for qi, q := range env.queries {
		merged := vec.NewTopK(cfg.K)
		for pi := range deps {
			matches, _, err := deps[pi].fe.Discover(context.Background(), deps[pi].pool, q, cfg.K, 0)
			if err != nil {
				return nil, fmt.Errorf("discover partition %d: %w", pi, err)
			}
			for _, m := range matches {
				merged.Offer(m.ID, m.Distance)
			}
		}
		retrieved := merged.Sorted()
		gt := make([]vec.Scored, len(env.gt[qi]))
		for i, s := range env.gt[qi] {
			gt[i] = vec.Scored{ID: s.ID + 1, Score: s.Score}
		}
		recallSum += baseline.RecallAtK(gt, retrieved)
		accSum += baseline.AccuracyRatio(gt, retrieved)
	}
	elapsed := time.Since(qStart)
	nq := float64(len(env.queries))
	meas.Recall = recallSum / nq
	meas.Accuracy = accSum / nq
	if elapsed > 0 {
		meas.QPS = nq / elapsed.Seconds()
	}

	// Bucket traffic from the live counters that also enforce the
	// leakage invariant: cloud.buckets_unmasked summed across partitions,
	// normalized per query. Counting both phases' queries keeps the
	// denominator in step with the counter.
	var buckets, queries int64
	for pi := range deps {
		snap := deps[pi].reg.Snapshot()
		buckets += snap.Counters["cloud.buckets_unmasked"]
		queries += snap.Counters["cloud.queries"]
		if v := snap.Counters["cloud.leakage_invariant_violations"]; v != 0 {
			return nil, fmt.Errorf("partition %d: %d leakage invariant violations", pi, v)
		}
	}
	if queries > 0 {
		meas.BucketsPerQuery = float64(buckets) / float64(queries) * float64(len(deps))
	}
	return meas, nil
}
