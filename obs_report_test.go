package pisd_test

import (
	"context"
	"testing"
	"time"

	"pisd"
	"pisd/internal/dataset"
	"pisd/internal/frontend"
	"pisd/internal/obs"
)

// TestStageLatencyReport produces the per-stage discovery latency table in
// EXPERIMENTS.md from a registry Snapshot() diff over a real workload:
// 5000 users, default parameters (l=10, d=4, dim 500), 200 discoveries
// against a cloud server on a TCP socket. Regenerate the table with
//
//	go test -run TestStageLatencyReport -v .
//
// The assertions are deliberately loose (stages observed, accounting
// consistent); the value is the logged breakdown.
func TestStageLatencyReport(t *testing.T) {
	if testing.Short() {
		t.Skip("workload report")
	}
	const (
		nUsers   = 5000
		dim      = 500
		nQueries = 200
	)
	ds, err := dataset.Generate(dataset.Config{
		Users: nUsers, Dim: dim, Topics: 25, TopicsPerUser: 2,
		ActiveWords: dim / 12, Noise: 0.02, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := pisd.DefaultFrontendConfig(dim)
	cfg.KeySeed = "stage-report"
	sf, err := pisd.NewFrontend(cfg)
	if err != nil {
		t.Fatal(err)
	}
	uploads := make([]pisd.Upload, nUsers)
	for i, p := range ds.Profiles {
		uploads[i] = pisd.Upload{ID: uint64(i + 1), Profile: p, Meta: sf.ComputeMeta(p)}
	}
	idx, encProfiles, err := sf.BuildIndex(uploads)
	if err != nil {
		t.Fatal(err)
	}

	reg := obs.NewRegistry()
	frontend.SetRegistry(reg)
	defer frontend.SetRegistry(obs.Default)
	cs := pisd.NewCloud()
	cs.SetRegistry(reg)

	server := pisd.NewCloudServer(cs)
	addr, err := server.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		server.Shutdown(ctx)
	}()
	remote := pisd.NewRemoteShard(addr)
	defer remote.Close()
	pool, err := pisd.NewShardPool(pisd.DefaultShardPoolConfig(), remote)
	if err != nil {
		t.Fatal(err)
	}
	if err := pool.InstallShard(0, idx, encProfiles); err != nil {
		t.Fatal(err)
	}

	before := reg.Snapshot()
	for q := 0; q < nQueries; q++ {
		id := uint64(q*7%nUsers + 1)
		if _, _, err := sf.Discover(context.Background(), pool, ds.Profiles[id-1], 5, id); err != nil {
			t.Fatal(err)
		}
	}
	flat := reg.Snapshot().Diff(before).Flatten()

	if got := flat["frontend.discover_count"]; got != nQueries {
		t.Fatalf("frontend.discover_count = %d, want %d", got, nQueries)
	}
	stages := []struct{ label, key string }{
		{"trapdoor generation", "frontend.trapdoor"},
		{"cloud exchange (fan-out)", "frontend.fanout"},
		{"— of which server SecRec", "cloud.secrec"},
		{"profile decrypt + distances", "frontend.decrypt"},
		{"top-k ranking", "frontend.rank"},
		{"end-to-end discovery", "frontend.discover"},
	}
	t.Logf("per-stage latency over %d discoveries (n=%d, dim=%d, TCP loopback):", nQueries, nUsers, dim)
	t.Logf("| %-27s | %9s | %9s | %9s |", "stage", "p50 (µs)", "p99 (µs)", "avg (µs)")
	for _, st := range stages {
		if flat[st.key+"_count"] == 0 {
			t.Errorf("stage %q never observed", st.key)
			continue
		}
		t.Logf("| %-27s | %9.0f | %9.0f | %9.0f |", st.label,
			float64(flat[st.key+"_p50_ns"])/1e3,
			float64(flat[st.key+"_p99_ns"])/1e3,
			float64(flat[st.key+"_avg_ns"])/1e3)
	}
}
