package frontend

import (
	"context"
	"errors"
	"testing"

	"pisd/internal/core"
)

// TestBuildShardedIndexRoutesProfiles checks the partitioned build: shard
// widths and parameters match the single-node build, every upload's
// encrypted profile lands on its owning shard, and nothing is duplicated.
func TestBuildShardedIndexRoutesProfiles(t *testing.T) {
	const n, shards = 200, 4
	f, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	ds := testPopulation(t, n)
	uploads := uploadsFrom(ds, f)

	single, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	idx, _, err := single.BuildIndex(uploads)
	if err != nil {
		t.Fatalf("BuildIndex: %v", err)
	}

	built, err := f.BuildShardedIndex(uploads, shards, nil)
	if err != nil {
		t.Fatalf("BuildShardedIndex: %v", err)
	}
	if len(built) != shards {
		t.Fatalf("got %d shards, want %d", len(built), shards)
	}
	total := 0
	for s, sh := range built {
		if got, want := sh.Index.Params(), idx.Params(); got != want {
			t.Fatalf("shard %d params %+v differ from single-node %+v", s, got, want)
		}
		for id := range sh.EncProfiles {
			if int(id%shards) != s {
				t.Fatalf("profile %d stored on shard %d, owner is %d", id, s, id%shards)
			}
		}
		total += len(sh.EncProfiles)
	}
	if total != n {
		t.Fatalf("%d profiles routed, want %d", total, n)
	}

	fp, err := f.IndexParams()
	if err != nil {
		t.Fatal(err)
	}
	if fp != idx.Params() {
		t.Fatalf("front end params %+v differ from index %+v", fp, idx.Params())
	}
}

func TestBuildShardedIndexRejectsBadInput(t *testing.T) {
	f, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	ds := testPopulation(t, 40)
	uploads := uploadsFrom(ds, f)
	if _, err := f.BuildShardedIndex(uploads, 0, nil); err == nil {
		t.Fatal("zero shards accepted")
	}
	if _, err := f.BuildShardedIndex(uploads, 2, func(uint64) int { return 7 }); err == nil {
		t.Fatal("out-of-range owner accepted")
	}
	if _, err := f.BuildShardedDynamicIndex(uploads, 0, nil); err == nil {
		t.Fatal("zero dynamic shards accepted")
	}
	if _, err := f.BuildShardedDynamicIndex(uploads, 2, func(uint64) int { return -1 }); err == nil {
		t.Fatal("negative dynamic owner accepted")
	}
}

// fanoutStub implements FanoutBatchServer with one canned result.
type fanoutStub struct {
	ids      []uint64
	profiles [][]byte
	partial  bool
	err      error
}

func (s *fanoutStub) SecRecBatch(context.Context, []*core.Trapdoor) ([][]uint64, [][][]byte, bool, error) {
	return [][]uint64{s.ids}, [][][]byte{s.profiles}, s.partial, s.err
}

// TestDiscoverShardedPropagatesPartial checks that the partial flag and
// fan-out errors surface through Discover.
func TestDiscoverShardedPropagatesPartial(t *testing.T) {
	const n = 60
	f, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	ds := testPopulation(t, n)
	uploads := uploadsFrom(ds, f)
	if _, _, err := f.BuildIndex(uploads); err != nil {
		t.Fatal(err)
	}

	ct, err := f.EncryptProfile(ds.Profiles[1])
	if err != nil {
		t.Fatal(err)
	}
	stub := &fanoutStub{ids: []uint64{2}, profiles: [][]byte{ct}, partial: true}
	matches, partial, err := f.Discover(context.Background(), stub, ds.Profiles[0], 5, 0)
	if err != nil {
		t.Fatalf("Discover: %v", err)
	}
	if !partial {
		t.Fatal("partial flag dropped")
	}
	if len(matches) != 1 || matches[0].ID != 2 {
		t.Fatalf("unexpected matches %v", matches)
	}

	stub.err = errors.New("all shards failed")
	if _, _, err := f.Discover(context.Background(), stub, ds.Profiles[0], 5, 0); err == nil {
		t.Fatal("fan-out error swallowed")
	}
}

func TestRouteShardValidation(t *testing.T) {
	f, ups, shards, nodes, _, _ := dynServingFixture(t, 40)
	if _, err := f.NewDynServing(shards, nil, nil, ServingConfig{}); err == nil {
		t.Fatal("mismatched shard/node lengths accepted")
	}
	serv, err := f.NewDynServing(shards, nodes, func(uint64) int { return 9 }, ServingConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := serv.Insert(1, ups[0].Profile); err == nil {
		t.Fatal("out-of-range owner accepted")
	}
}
