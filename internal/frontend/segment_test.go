package frontend

import (
	"context"
	"testing"

	"pisd/internal/cloud"
	"pisd/internal/core"
	"pisd/internal/crypt"
	"pisd/internal/segstore"
)

// TestStreamingBuildMatchesMonolithic pins the contract that makes
// -attach work: a SegmentBuilder fed the population in batches derives
// its index parameters from (config, n) alone, so a one-shot core.Build
// over the same metadata with those parameters — and a restarted front
// end that only knows n and the keys — agree with the segmented store
// exactly.
func TestStreamingBuildMatchesMonolithic(t *testing.T) {
	const n, batch = 600, 150
	cfg := testConfig()
	ds := testPopulation(t, n)

	streamer, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	keyBlob, err := streamer.ExportKeys()
	if err != nil {
		t.Fatal(err)
	}
	uploads := uploadsFrom(ds, streamer)
	dir := t.TempDir()
	sb, err := streamer.NewSegmentBuilder(n, dir)
	if err != nil {
		t.Fatal(err)
	}
	for lo := 0; lo < n; lo += batch {
		cts, err := sb.AddUploads(uploads[lo:min(lo+batch, n)])
		if err != nil {
			t.Fatal(err)
		}
		if len(cts) != min(batch, n-lo) {
			t.Fatalf("batch at %d: %d ciphertexts", lo, len(cts))
		}
	}
	if _, err := sb.Finish(); err != nil {
		t.Fatal(err)
	}
	streamParams, err := streamer.IndexParams()
	if err != nil {
		t.Fatal(err)
	}

	// Monolithic comparison: one-shot build from the same metadata under
	// the same keys and parameters.
	keys := &crypt.KeySet{}
	if err := keys.UnmarshalBinary(keyBlob); err != nil {
		t.Fatal(err)
	}
	items := make([]core.Item, n)
	for i, u := range uploads {
		items[i] = core.Item{ID: u.ID, Meta: u.Meta}
	}
	idx, err := core.Build(keys, items, streamParams)
	if err != nil {
		t.Fatal(err)
	}

	st, err := segstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	// A second front end restarts from keys + n alone and attaches; its
	// derived parameters must match the build's.
	attached, err := NewWithKeys(cfg, keyBlob)
	if err != nil {
		t.Fatal(err)
	}
	if err := attached.AttachSegmented(n); err != nil {
		t.Fatal(err)
	}
	attachedParams, err := attached.IndexParams()
	if err != nil {
		t.Fatal(err)
	}
	if attachedParams != streamParams {
		t.Fatalf("attached params %+v differ from streamed %+v", attachedParams, streamParams)
	}
	for q := 0; q < 40; q++ {
		td, err := attached.Trapdoor(ds.Profiles[(q*17)%n])
		if err != nil {
			t.Fatal(err)
		}
		want, err := idx.SecRec(td)
		if err != nil {
			t.Fatal(err)
		}
		got, err := st.SecRec(td)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("query %d: %d ids segmented, %d monolithic", q, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("query %d: id %d differs: %d vs %d", q, i, got[i], want[i])
			}
		}
	}
}

// TestAttachSegmentedServesDiscovery runs the full restart path against an
// in-process cloud: stream, save encrypted profiles, attach, discover.
func TestAttachSegmentedServesDiscovery(t *testing.T) {
	const n = 400
	cfg := testConfig()
	ds := testPopulation(t, n)

	builder, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	keyBlob, err := builder.ExportKeys()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	sb, err := builder.NewSegmentBuilder(n, dir)
	if err != nil {
		t.Fatal(err)
	}
	cs := cloud.New()
	uploads := uploadsFrom(ds, builder)
	for lo := 0; lo < n; lo += 100 {
		batch := uploads[lo:min(lo+100, n)]
		cts, err := sb.AddUploads(batch)
		if err != nil {
			t.Fatal(err)
		}
		for i, ct := range cts {
			cs.PutProfile(batch[i].ID, ct)
		}
	}
	if _, err := sb.Finish(); err != nil {
		t.Fatal(err)
	}
	st, err := segstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	cs.SetSegmentStore(st)

	attached, err := NewWithKeys(cfg, keyBlob)
	if err != nil {
		t.Fatal(err)
	}
	if err := attached.AttachSegmented(n); err != nil {
		t.Fatal(err)
	}
	matches, _, err := attached.Discover(context.Background(), single(t, cs), ds.Profiles[0], 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) == 0 {
		t.Fatal("attached discovery returned no matches")
	}
	for _, m := range matches {
		if m.ID == 1 {
			t.Fatal("self not excluded")
		}
	}
}

func TestSegmentParamsValidation(t *testing.T) {
	f, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.SegmentParams(0); err == nil {
		t.Error("SegmentParams(0) accepted")
	}
	if err := f.AttachSegmented(-1); err == nil {
		t.Error("AttachSegmented(-1) accepted")
	}
	if err := f.AttachSegmented(100); err != nil {
		t.Fatalf("AttachSegmented(100): %v", err)
	}
	if _, err := f.Trapdoor(make([]float64, 100)); err != nil {
		t.Errorf("trapdoor after attach: %v", err)
	}
}

// TestUntunedConfigForPopulation pins the population-scaled atom counts of
// the autotuner's reference rule. The thresholds come from measured
// placement saturation: 4 atoms overflow a quarter of a 100k population
// into the stash, 5 atoms place it cleanly, and each further factor of 5
// in n needs one more atom.
func TestUntunedConfigForPopulation(t *testing.T) {
	for _, tc := range []struct{ users, atoms int }{
		{1, 4}, {5000, 4}, {20000, 4},
		{20001, 5}, {100000, 5},
		{100001, 6}, {500000, 6},
		{500001, 7}, {1000000, 7},
	} {
		cfg := UntunedConfigForPopulation(200, tc.users)
		if cfg.LSH.Atoms != tc.atoms {
			t.Errorf("users=%d: atoms=%d, want %d", tc.users, cfg.LSH.Atoms, tc.atoms)
		}
		base := DefaultConfig(200)
		base.LSH.Atoms = cfg.LSH.Atoms
		if cfg != base {
			t.Errorf("users=%d: UntunedConfigForPopulation changed more than atoms", tc.users)
		}
	}
}

// TestConfigForPopulation pins the production operating points: the
// autotuner's measured winners on their population tiers, the untuned
// reference rule beyond the last measured tier, and nothing but
// (tables, atoms, width, probe range) ever deviating from the untuned
// config. Regenerate with pisd-autotune (see EXPERIMENTS.md) before
// changing these values.
func TestConfigForPopulation(t *testing.T) {
	for _, tc := range []struct {
		users, tables, atoms int
		width                float64
		probeRange           int
	}{
		{1, 6, 5, 1.0, 4},
		{10000, 6, 5, 1.0, 4},
		{10001, 7, 6, 1.0, 4},
		{20000, 7, 6, 1.0, 4},
		{100000, 7, 6, 1.0, 4},
		// Beyond the measured tiers the untuned rule applies unchanged.
		{100001, 10, 6, 0.7, 4},
		{1000000, 10, 7, 0.7, 4},
	} {
		cfg := ConfigForPopulation(200, tc.users)
		if cfg.LSH.Tables != tc.tables || cfg.LSH.Atoms != tc.atoms ||
			cfg.LSH.Width != tc.width || cfg.ProbeRange != tc.probeRange {
			t.Errorf("users=%d: got l=%d k=%d W=%g d=%d, want l=%d k=%d W=%g d=%d",
				tc.users, cfg.LSH.Tables, cfg.LSH.Atoms, cfg.LSH.Width, cfg.ProbeRange,
				tc.tables, tc.atoms, tc.width, tc.probeRange)
		}
		base := UntunedConfigForPopulation(200, tc.users)
		base.LSH.Tables, base.LSH.Atoms = tc.tables, tc.atoms
		base.LSH.Width, base.ProbeRange = tc.width, tc.probeRange
		if cfg != base {
			t.Errorf("users=%d: ConfigForPopulation deviates beyond the tuned axes", tc.users)
		}
	}
}
