package frontend

import (
	"context"
	"reflect"
	"testing"

	"pisd/internal/cloud"
)

// TestDiscoverBatchEqualsSerial is the batched throughput path's
// correctness contract: for every query of the batch the result must be
// byte-identical to the looped serial Discover — ids, distances and order.
func TestDiscoverBatchEqualsSerial(t *testing.T) {
	const n, k = 300, 7
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

	targets := ds.Profiles[:24]
	excludes := make([]uint64, len(targets))
	for i := range excludes {
		excludes[i] = uint64(i + 1) // self-exclusion, like serial callers do
	}
	got, _, err := f.DiscoverBatch(context.Background(), single(t, cs), targets, k, excludes)
	if err != nil {
		t.Fatalf("DiscoverBatch: %v", err)
	}
	if len(got) != len(targets) {
		t.Fatalf("%d results for %d targets", len(got), len(targets))
	}
	for q, target := range targets {
		want, _, err := f.Discover(context.Background(), single(t, cs), target, k, excludes[q])
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got[q], want) {
			t.Fatalf("query %d: batched %+v, want serial %+v", q, got[q], want)
		}
	}

	// Nil excludeIDs means no exclusion anywhere.
	gotNoEx, _, err := f.DiscoverBatch(context.Background(), single(t, cs), targets[:3], k, nil)
	if err != nil {
		t.Fatal(err)
	}
	for q := 0; q < 3; q++ {
		want, _, err := f.Discover(context.Background(), single(t, cs), targets[q], k, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(gotNoEx[q], want) {
			t.Fatalf("query %d without exclusion differs from serial", q)
		}
	}

	// Validation paths.
	if _, _, err := f.DiscoverBatch(context.Background(), single(t, cs), nil, k, nil); err == nil {
		t.Error("empty batch accepted")
	}
	if _, _, err := f.DiscoverBatch(context.Background(), single(t, cs), targets, k, excludes[:1]); err == nil {
		t.Error("misaligned excludeIDs accepted")
	}
}

// TestTrapdoorsMatchSerial checks the parallel trapdoor fan-out against
// per-profile Trapdoor calls (generation is deterministic).
func TestTrapdoorsMatchSerial(t *testing.T) {
	f, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	ds := testPopulation(t, 100)
	if _, err := f.Trapdoors(ds.Profiles[:4]); err == nil {
		t.Error("Trapdoors before BuildIndex accepted")
	}
	if _, _, err := f.BuildIndex(uploadsFrom(ds, f)); err != nil {
		t.Fatal(err)
	}
	tds, err := f.Trapdoors(ds.Profiles[:16])
	if err != nil {
		t.Fatal(err)
	}
	for i, td := range tds {
		want, err := f.Trapdoor(ds.Profiles[i])
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(td, want) {
			t.Fatalf("trapdoor %d differs from serial generation", i)
		}
	}
}
