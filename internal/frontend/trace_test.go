package frontend

import (
	"context"
	"reflect"
	"testing"
	"time"

	"pisd/internal/cloud"
	"pisd/internal/obs"
	"pisd/internal/shard"
	"pisd/internal/transport"
)

// TestDiscoverTraced checks that a discovery run under a ctx-carried trace
// records the four stages in order and feeds the frontend stage
// histograms, for a single discovery and for a batch of three.
func TestDiscoverTraced(t *testing.T) {
	const n = 200
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
	pool := single(t, cs)

	before := obs.Default.Snapshot()
	tr := obs.NewTrace("discover")
	matches, _, err := f.Discover(obs.WithTrace(context.Background(), tr), pool, ds.Profiles[7], 5, 0)
	if err != nil {
		t.Fatalf("Discover: %v", err)
	}
	if len(matches) == 0 {
		t.Fatal("no matches")
	}
	checkStages(t, tr)

	d := obs.Default.Snapshot().Diff(before)
	for _, h := range []string{"frontend.trapdoor", "frontend.fanout", "frontend.decrypt", "frontend.rank", "frontend.discover", "cloud.secrec"} {
		if d.Histograms[h].Count < 1 {
			t.Errorf("histogram %s not fed by traced discovery", h)
		}
	}
	if d.Counters["frontend.discoveries"] < 1 {
		t.Error("frontend.discoveries not incremented")
	}

	btr := obs.NewTrace("discover_batch")
	batch, _, err := f.DiscoverBatch(obs.WithTrace(context.Background(), btr), pool, ds.Profiles[:3], 5, nil)
	if err != nil {
		t.Fatalf("DiscoverBatch: %v", err)
	}
	if len(batch) != 3 {
		t.Fatalf("batch of 3 answered with %d results", len(batch))
	}
	checkStages(t, btr)
}

// checkStages asserts a discovery trace holds trapdoor, fanout, decrypt
// and rank in order, with a total covering their sum.
func checkStages(t *testing.T, tr *obs.Trace) {
	t.Helper()
	want := []string{"trapdoor", "fanout", "decrypt", "rank"}
	if len(tr.Stages) != len(want) {
		t.Fatalf("trace has %d stages (%v), want %v", len(tr.Stages), tr.String(), want)
	}
	var sum int64
	for i, st := range tr.Stages {
		if st.Name != want[i] {
			t.Errorf("stage %d = %q, want %q", i, st.Name, want[i])
		}
		if st.Dur < 0 {
			t.Errorf("stage %q has negative duration", st.Name)
		}
		sum += st.Dur.Nanoseconds()
	}
	if tr.Total <= 0 || tr.Total.Nanoseconds() < sum {
		t.Errorf("trace total %v shorter than stage sum %dns", tr.Total, sum)
	}
}

// TestTracingInvisibleToCloud is the leakage check for the ctx-carried
// trace: the same discoveries over real TCP transport, once untraced and
// once traced, move every cloud counter and the wire traffic in both
// directions by exactly the same amounts. Both are per-instance counters
// (the cloud's own registry, the remote node's byte counts), so no
// process-wide registry is swapped under live connections.
func TestTracingInvisibleToCloud(t *testing.T) {
	const n = 200
	f, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	ds := testPopulation(t, n)
	idx, encProfiles, err := f.BuildIndex(uploadsFrom(ds, f))
	if err != nil {
		t.Fatal(err)
	}
	creg := obs.NewRegistry()
	cs := cloud.New()
	cs.SetRegistry(creg)
	cs.SetIndex(idx)
	cs.PutProfiles(encProfiles)
	srv := transport.NewServer(cs)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	}()
	remote := shard.NewRemote(addr)
	defer remote.Close()
	pool, err := shard.NewPool(shard.DefaultConfig(), remote)
	if err != nil {
		t.Fatal(err)
	}

	type wire struct{ sent, received int64 }
	run := func(traced bool) (map[string]int64, wire) {
		cBefore := creg.Snapshot()
		sent, received := remote.Traffic()
		newCtx := func() context.Context {
			if traced {
				return obs.WithTrace(context.Background(), obs.NewTrace("discover"))
			}
			return context.Background()
		}
		for q := 0; q < 3; q++ {
			if _, _, err := f.Discover(newCtx(), pool, ds.Profiles[q], 5, uint64(q+1)); err != nil {
				t.Fatal(err)
			}
		}
		if _, _, err := f.DiscoverBatch(newCtx(), pool, ds.Profiles[3:6], 5, nil); err != nil {
			t.Fatal(err)
		}
		sentAfter, receivedAfter := remote.Traffic()
		return creg.Snapshot().Diff(cBefore).Counters, wire{sentAfter - sent, receivedAfter - received}
	}
	run(false) // warm-up: dial and gob type descriptors travel once
	plainCloud, plainWire := run(false)
	tracedCloud, tracedWire := run(true)
	if plainCloud["cloud.queries"] != 6 {
		t.Fatalf("cloud.queries moved by %d, want 6", plainCloud["cloud.queries"])
	}
	if !reflect.DeepEqual(plainCloud, tracedCloud) {
		t.Errorf("cloud deltas differ:\nuntraced: %v\ntraced:   %v", plainCloud, tracedCloud)
	}
	if plainWire.sent <= 0 || plainWire.received <= 0 {
		t.Fatalf("no wire traffic measured: %+v", plainWire)
	}
	if plainWire != tracedWire {
		t.Errorf("wire traffic differs: untraced %+v, traced %+v", plainWire, tracedWire)
	}
}
