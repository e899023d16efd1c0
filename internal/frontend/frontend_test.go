package frontend

import (
	"context"
	"math/rand"
	"sync"
	"testing"

	"pisd/internal/cloud"
	"pisd/internal/core"
	"pisd/internal/dataset"
	"pisd/internal/fof"
	"pisd/internal/lsh"
	"pisd/internal/shard"
	"pisd/internal/vec"
)

func testConfig() Config {
	return Config{
		LSH:        lsh.Params{Dim: 100, Tables: 8, Atoms: 2, Width: 0.8, Seed: 1},
		LoadFactor: 0.8,
		ProbeRange: 6,
		MaxLoop:    300,
		MaxRehash:  3,
		Seed:       1,
		KeySeed:    "frontend-test",
	}
}

func testPopulation(t *testing.T, n int) *dataset.Dataset {
	t.Helper()
	cfg := dataset.Config{
		Users: n, Dim: 100, Topics: 10, TopicsPerUser: 2,
		ActiveWords: 20, Noise: 0.02, Seed: 7,
	}
	ds, err := dataset.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func uploadsFrom(ds *dataset.Dataset, f *Frontend) []Upload {
	ups := make([]Upload, len(ds.Profiles))
	for i, p := range ds.Profiles {
		ups[i] = Upload{ID: uint64(i + 1), Profile: p, Meta: f.ComputeMeta(p)}
	}
	return ups
}

// single serves one in-process cloud as the one-node pool every static
// discovery drives.
func single(t *testing.T, cs *cloud.Server) *shard.Pool {
	t.Helper()
	pool, err := shard.NewPool(shard.DefaultConfig(), shard.NewLocal(cs))
	if err != nil {
		t.Fatal(err)
	}
	return pool
}

func TestConfigValidate(t *testing.T) {
	tests := []struct {
		name string
		mut  func(*Config)
	}{
		{"bad lsh", func(c *Config) { c.LSH.Dim = 0 }},
		{"zero load", func(c *Config) { c.LoadFactor = 0 }},
		{"load above one", func(c *Config) { c.LoadFactor = 1.5 }},
		{"negative probes", func(c *Config) { c.ProbeRange = -1 }},
		{"zero maxloop", func(c *Config) { c.MaxLoop = 0 }},
		{"negative rehash", func(c *Config) { c.MaxRehash = -1 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			c := testConfig()
			tt.mut(&c)
			if _, err := New(c); err == nil {
				t.Error("expected validation error")
			}
		})
	}
	if err := DefaultConfig(1000).Validate(); err != nil {
		t.Errorf("DefaultConfig invalid: %v", err)
	}
}

func TestEndToEndDiscovery(t *testing.T) {
	const n = 400
	f, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	ds := testPopulation(t, n)
	uploads := uploadsFrom(ds, f)

	idx, encProfiles, err := f.BuildIndex(uploads)
	if err != nil {
		t.Fatalf("BuildIndex: %v", err)
	}
	cs := cloud.New()
	cs.SetIndex(idx)
	cs.PutProfiles(encProfiles)
	if cs.NumProfiles() != n {
		t.Fatalf("cloud holds %d profiles", cs.NumProfiles())
	}

	// Discovery for an indexed user must surface the user themself at
	// distance zero when not excluded.
	target := ds.Profiles[3]
	matches, _, err := f.Discover(context.Background(), single(t, cs), target, 5, 0)
	if err != nil {
		t.Fatalf("Discover: %v", err)
	}
	if len(matches) == 0 {
		t.Fatal("no matches")
	}
	if matches[0].ID != 4 || matches[0].Distance > 1e-9 {
		t.Errorf("self match missing: got %+v", matches[0])
	}
	// With exclusion, the self id must vanish.
	matches, _, err = f.Discover(context.Background(), single(t, cs), target, 5, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range matches {
		if m.ID == 4 {
			t.Error("excluded id present")
		}
	}
	// Results must be distance-sorted.
	for i := 1; i < len(matches); i++ {
		if matches[i].Distance < matches[i-1].Distance {
			t.Fatal("matches not sorted")
		}
	}
}

func TestDiscoveryFindsTopicPeers(t *testing.T) {
	const n = 500
	f, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	ds := testPopulation(t, n)
	idx, encProfiles, err := f.BuildIndex(uploadsFrom(ds, f))
	if err != nil {
		t.Fatal(err)
	}
	cs := cloud.New()
	cs.SetIndex(idx)
	cs.PutProfiles(encProfiles)

	// Fresh query users drawn from the same topic model: their top
	// matches should share topics clearly more often than chance.
	queries, queryTopics := ds.Queries(20, 99)
	sharedTop, totalTop := 0, 0
	for qi, q := range queries {
		matches, _, err := f.Discover(context.Background(), single(t, cs), q, 5, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range matches {
			if dataset.SharedTopics(queryTopics[qi], ds.UserTopics[m.ID-1]) > 0 {
				sharedTop++
			}
			totalTop++
		}
	}
	if totalTop == 0 {
		t.Fatal("no discovery results at all")
	}
	frac := float64(sharedTop) / float64(totalTop)
	// Chance level: with 10 topics and 2 per user, random pairs share a
	// topic with prob ~0.38. Require clearly better.
	if frac < 0.6 {
		t.Errorf("topic consistency %.2f below 0.6 (results not better than chance)", frac)
	}
}

func TestTrapdoorRequiresBuild(t *testing.T) {
	f, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Trapdoor(make([]float64, 100)); err == nil {
		t.Error("trapdoor before build accepted")
	}
	if _, err := f.IndexParams(); err == nil {
		t.Error("IndexParams before build accepted")
	}
}

func TestProfileEncryptionRoundTrip(t *testing.T) {
	f, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	s := vec.Normalize([]float64{1, 2, 3})
	ct, err := f.EncryptProfile(s)
	if err != nil {
		t.Fatal(err)
	}
	got, err := f.DecryptProfile(ct)
	if err != nil {
		t.Fatal(err)
	}
	for i := range s {
		if got[i] != s[i] {
			t.Fatal("profile round trip mismatch")
		}
	}
}

func TestDiscoverFoFBoostsSocialties(t *testing.T) {
	const n = 300
	f, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	ds := testPopulation(t, n)
	idx, encProfiles, err := f.BuildIndex(uploadsFrom(ds, f))
	if err != nil {
		t.Fatal(err)
	}
	cs := cloud.New()
	cs.SetIndex(idx)
	cs.PutProfiles(encProfiles)

	target := uint64(10)
	plain, _, err := f.Discover(context.Background(), single(t, cs), ds.Profiles[9], 10, target)
	if err != nil {
		t.Fatal(err)
	}
	if len(plain) < 2 {
		t.Skip("not enough candidates for FoF test")
	}
	// Make the last-ranked candidate a friend-of-friend of the target.
	g := fof.NewGraph()
	bridge := uint64(299)
	g.AddFriendship(target, bridge)
	g.AddFriendship(bridge, plain[len(plain)-1].ID)

	boosted, _, err := f.DiscoverFoF(context.Background(), single(t, cs), g, target, ds.Profiles[9], len(plain))
	if err != nil {
		t.Fatal(err)
	}
	if len(boosted) == 0 {
		t.Fatal("no boosted results")
	}
	if boosted[0].ID != plain[len(plain)-1].ID {
		t.Errorf("FoF candidate not promoted: first is %d, want %d",
			boosted[0].ID, plain[len(plain)-1].ID)
	}
}

func TestDynamicFlow(t *testing.T) {
	const n = 300
	f, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	ds := testPopulation(t, n)
	uploads := uploadsFrom(ds, f)
	parts, err := f.BuildShardedDynamicIndex(uploads, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	cs := cloud.New()
	cs.SetDynIndex(parts[0].Index)
	cs.PutProfiles(parts[0].EncProfiles)

	target := ds.Profiles[7]
	shards, nodes := parts, []DynNode{shard.NewLocal(cs)}
	matches, _, err := f.DynSearchSharded(shards, nodes, target, 5, 0)
	if err != nil {
		t.Fatalf("DynSearchSharded: %v", err)
	}
	if len(matches) == 0 || matches[0].ID != 8 {
		t.Fatalf("dynamic search did not find self: %+v", matches)
	}

	// Update user 8's profile: delete, re-insert with new interests.
	serving, err := f.NewDynServing(shards, nodes, nil, ServingConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := serving.Delete(8, ds.Profiles[7]); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	newProfile := ds.Profiles[100] // adopt another user's interests
	if err := serving.Insert(8, newProfile); err != nil {
		t.Fatalf("Insert: %v", err)
	}

	matches, _, err = f.DynSearchSharded(shards, nodes, newProfile, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, m := range matches {
		if m.ID == 8 {
			found = true
		}
	}
	if !found {
		t.Error("updated user not discoverable under new profile")
	}
}

func TestBuildIndexDimMismatch(t *testing.T) {
	f, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = f.BuildIndex([]Upload{{ID: 1, Profile: make([]float64, 3)}})
	if err == nil {
		t.Error("dim mismatch accepted")
	}
}

func TestCloudWithoutIndex(t *testing.T) {
	cs := cloud.New()
	if _, _, err := cs.SecRec(&core.Trapdoor{}); err == nil {
		t.Error("SecRec without index accepted")
	}
	if _, err := cs.FetchBuckets(nil); err == nil {
		t.Error("FetchBuckets without index accepted")
	}
	if err := cs.StoreBuckets(nil, nil); err == nil {
		t.Error("StoreBuckets without index accepted")
	}
}

func TestCloudImagesRoundTrip(t *testing.T) {
	cs := cloud.New()
	cs.StoreImages(5, []byte("img-a"), []byte("img-b"))
	got := cs.Images(5)
	if len(got) != 2 || string(got[0]) != "img-a" || string(got[1]) != "img-b" {
		t.Errorf("Images = %q", got)
	}
	// Returned slices are copies.
	got[0][0] = 'X'
	if string(cs.Images(5)[0]) != "img-a" {
		t.Error("Images aliases internal storage")
	}
	if got := cs.Images(99); len(got) != 0 {
		t.Errorf("unknown user images = %v", got)
	}
}

func TestCloudFetchProfilesUnknown(t *testing.T) {
	cs := cloud.New()
	cs.PutProfile(1, []byte("ct"))
	if _, err := cs.FetchProfiles([]uint64{1, 2}); err == nil {
		t.Error("unknown profile fetch accepted")
	}
	got, err := cs.FetchProfiles([]uint64{1})
	if err != nil || string(got[0]) != "ct" {
		t.Errorf("FetchProfiles = %q, %v", got, err)
	}
}

func TestDiscoverBatchWithDecoys(t *testing.T) {
	const n = 300
	f, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	ds := testPopulation(t, n)
	idx, encProfiles, err := f.BuildIndex(uploadsFrom(ds, f))
	if err != nil {
		t.Fatal(err)
	}
	cs := cloud.New()
	cs.SetIndex(idx)
	cs.PutProfiles(encProfiles)

	targets := [][]float64{ds.Profiles[0], ds.Profiles[1], ds.Profiles[2]}
	rng := rand.New(rand.NewSource(5))
	results, _, err := f.DiscoverWithDecoys(context.Background(), single(t, cs), targets, 5, 7, rng)
	if err != nil {
		t.Fatalf("DiscoverWithDecoys: %v", err)
	}
	if len(results) != len(targets) {
		t.Fatalf("results for %d targets", len(results))
	}
	// Batched results must equal unbatched discovery per target.
	for i, target := range targets {
		plain, _, err := f.Discover(context.Background(), single(t, cs), target, 5, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(plain) != len(results[i]) {
			t.Fatalf("target %d: batched %d results vs plain %d", i, len(results[i]), len(plain))
		}
		for r := range plain {
			if plain[r].ID != results[i][r].ID {
				t.Fatalf("target %d rank %d: batched %d vs plain %d", i, r, results[i][r].ID, plain[r].ID)
			}
		}
	}
	// Validation paths.
	if _, _, err := f.DiscoverWithDecoys(context.Background(), single(t, cs), nil, 5, 0, rng); err == nil {
		t.Error("empty targets accepted")
	}
	if _, _, err := f.DiscoverWithDecoys(context.Background(), single(t, cs), targets, 5, -1, rng); err == nil {
		t.Error("negative decoys accepted")
	}
	// Nil rng uses a default.
	if _, _, err := f.DiscoverWithDecoys(context.Background(), single(t, cs), targets[:1], 3, 2, nil); err != nil {
		t.Errorf("nil rng: %v", err)
	}
}

// recordingFanout records every trapdoor batch it forwards.
type recordingFanout struct {
	inner   FanoutBatchServer
	mu      sync.Mutex
	batches [][]*core.Trapdoor
}

func (r *recordingFanout) SecRecBatch(ctx context.Context, ts []*core.Trapdoor) ([][]uint64, [][][]byte, bool, error) {
	r.mu.Lock()
	r.batches = append(r.batches, ts)
	r.mu.Unlock()
	return r.inner.SecRecBatch(ctx, ts)
}

// TestDiscoverWithDecoysFreshPerCall pins the decoy mitigation: with a
// nil rng every call draws new decoys, so the cloud cannot strip them by
// spotting trapdoors that repeat across rounds. Each call is also one
// batch carrying the target and its decoys together.
func TestDiscoverWithDecoysFreshPerCall(t *testing.T) {
	const n, decoys = 200, 4
	f, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	ds := testPopulation(t, n)
	idx, encProfiles, err := f.BuildIndex(uploadsFrom(ds, f))
	if err != nil {
		t.Fatal(err)
	}
	cs := cloud.New()
	cs.SetIndex(idx)
	cs.PutProfiles(encProfiles)
	rec := &recordingFanout{inner: single(t, cs)}

	target := ds.Profiles[0]
	for call := 0; call < 2; call++ {
		if _, _, err := f.DiscoverWithDecoys(context.Background(), rec, [][]float64{target}, 5, decoys, nil); err != nil {
			t.Fatal(err)
		}
	}
	if len(rec.batches) != 2 {
		t.Fatalf("2 calls sent %d batches, want one each", len(rec.batches))
	}
	real, err := f.Trapdoor(target)
	if err != nil {
		t.Fatal(err)
	}
	realKey := trapdoorKey(real)
	sentBy := make(map[CacheKey]int)
	for call, batch := range rec.batches {
		if len(batch) != 1+decoys {
			t.Fatalf("call %d sent %d trapdoors, want %d", call, len(batch), 1+decoys)
		}
		for _, td := range batch {
			key := trapdoorKey(td)
			if key == realKey {
				continue
			}
			if prev, dup := sentBy[key]; dup {
				t.Fatalf("call %d resent a decoy trapdoor of call %d", call, prev)
			}
			sentBy[key] = call
		}
	}
	if len(sentBy) != 2*decoys {
		t.Fatalf("%d distinct decoys over 2 calls, want %d", len(sentBy), 2*decoys)
	}
}

// TestDiscoverMultiProbeDeterministic pins multi-probe ranking to the one
// ranker: with 12 users sharing one profile every candidate ties, and the
// top-k must still be the same on every call (first-seen order), while
// variants = 0 must equal Discover slot-exactly.
func TestDiscoverMultiProbeDeterministic(t *testing.T) {
	const n, twins, k = 300, 12, 3
	f, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	ds := testPopulation(t, n)
	for i := 1; i < twins; i++ {
		ds.Profiles[i] = ds.Profiles[0]
	}
	idx, encProfiles, err := f.BuildIndex(uploadsFrom(ds, f))
	if err != nil {
		t.Fatal(err)
	}
	cs := cloud.New()
	cs.SetIndex(idx)
	cs.PutProfiles(encProfiles)
	pool := single(t, cs)
	ctx := context.Background()

	first, _, err := f.DiscoverMultiProbe(ctx, pool, ds.Profiles[0], k, 0, 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(first) != k {
		t.Fatalf("multi-probe returned %d matches, want %d", len(first), k)
	}
	for call := 1; call < 50; call++ {
		got, _, err := f.DiscoverMultiProbe(ctx, pool, ds.Profiles[0], k, 0, 6)
		if err != nil {
			t.Fatal(err)
		}
		if err := EqualMatches(got, first); err != nil {
			t.Fatalf("call %d: %v", call, err)
		}
	}

	queries, _ := ds.Queries(10, 5)
	for qi, q := range append(queries, ds.Profiles[0]) {
		want, _, err := f.Discover(ctx, pool, q, 7, 2)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := f.DiscoverMultiProbe(ctx, pool, q, 7, 2, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := EqualMatches(got, want); err != nil {
			t.Fatalf("query %d: variants = 0 differs from Discover: %v", qi, err)
		}
	}
}

func TestDiscoverMultiProbeImprovesRecall(t *testing.T) {
	const n = 500
	f, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	ds := testPopulation(t, n)
	idx, encProfiles, err := f.BuildIndex(uploadsFrom(ds, f))
	if err != nil {
		t.Fatal(err)
	}
	cs := cloud.New()
	cs.SetIndex(idx)
	cs.PutProfiles(encProfiles)

	queries, _ := ds.Queries(15, 42)
	var plainSum, mpSum float64
	for _, q := range queries {
		plain, _, err := f.Discover(context.Background(), single(t, cs), q, 10, 0)
		if err != nil {
			t.Fatal(err)
		}
		mp, _, err := f.DiscoverMultiProbe(context.Background(), single(t, cs), q, 10, 0, 8)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range plain {
			plainSum += m.Distance
		}
		for _, m := range mp {
			mpSum += m.Distance
		}
		if len(mp) < len(plain) {
			t.Fatalf("multi-probe returned fewer results (%d) than plain (%d)", len(mp), len(plain))
		}
	}
	// Multi-probe sees a superset of candidates, so its summed top-10
	// distances cannot be worse.
	if mpSum > plainSum+1e-9 {
		t.Errorf("multi-probe distances %.4f worse than plain %.4f", mpSum, plainSum)
	}
	if _, _, err := f.DiscoverMultiProbe(context.Background(), single(t, cs), queries[0], 5, 0, -1); err == nil {
		t.Error("negative variants accepted")
	}
}

func TestCompactProfilesFlow(t *testing.T) {
	cfg := testConfig()
	cfg.CompactProfiles = true
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ds := testPopulation(t, 200)
	idx, encProfiles, err := f.BuildIndex(uploadsFrom(ds, f))
	if err != nil {
		t.Fatal(err)
	}
	// Compact ciphertexts: 4 + 4*dim + overhead.
	for _, ct := range encProfiles {
		if len(ct) >= 4+8*100 {
			t.Fatalf("profile ciphertext %d bytes, not compact", len(ct))
		}
		break
	}
	cs := cloud.New()
	cs.SetIndex(idx)
	cs.PutProfiles(encProfiles)
	matches, _, err := f.Discover(context.Background(), single(t, cs), ds.Profiles[0], 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) == 0 || matches[0].ID != 1 {
		t.Fatalf("compact discovery results: %+v", matches)
	}
	if matches[0].Distance > 1e-6 {
		t.Errorf("self distance %v under compact encoding", matches[0].Distance)
	}
}

func TestKeyPersistenceAcrossRestart(t *testing.T) {
	// Session 1: build and outsource.
	f1, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	ds := testPopulation(t, 200)
	idx, encProfiles, err := f1.BuildIndex(uploadsFrom(ds, f1))
	if err != nil {
		t.Fatal(err)
	}
	cs := cloud.New()
	cs.SetIndex(idx)
	cs.PutProfiles(encProfiles)
	keyBlob, err := f1.ExportKeys()
	if err != nil {
		t.Fatal(err)
	}
	params, err := f1.IndexParams()
	if err != nil {
		t.Fatal(err)
	}

	// Session 2: a fresh front end restored from the key blob serves the
	// same cloud state.
	f2, err := NewWithKeys(testConfig(), keyBlob)
	if err != nil {
		t.Fatalf("NewWithKeys: %v", err)
	}
	if err := f2.RestoreIndexParams(params); err != nil {
		t.Fatal(err)
	}
	matches, _, err := f2.Discover(context.Background(), single(t, cs), ds.Profiles[3], 5, 0)
	if err != nil {
		t.Fatalf("Discover after restart: %v", err)
	}
	if len(matches) == 0 || matches[0].ID != 4 || matches[0].Distance > 1e-9 {
		t.Fatalf("restored front end results: %+v", matches)
	}

	// Mismatched table count is rejected.
	badCfg := testConfig()
	badCfg.LSH.Tables = 3
	if _, err := NewWithKeys(badCfg, keyBlob); err == nil {
		t.Error("table-count mismatch accepted")
	}
	if err := f2.RestoreIndexParams(core.Params{Tables: 2, Capacity: 10, ProbeRange: 1, MaxLoop: 1}); err == nil {
		t.Error("mismatched index params accepted")
	}
}
