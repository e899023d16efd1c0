package shard

import (
	"context"
	"fmt"
	"testing"
)

// BenchmarkPoolSecRec compares fan-out discovery latency for a 1-shard
// and a 4-shard pool over the same dataset: the 4-shard pool touches the
// same number of buckets overall but unmasks them on four nodes in
// parallel.
func BenchmarkPoolSecRec(b *testing.B) {
	for _, shards := range []int{1, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			f := testFrontend(b, "shard-bench")
			uploads, ds := testUploads(b, f, 300)
			pool := localPool(b, f, uploads, shards)
			queries, _ := ds.Queries(1, 17)
			tds, err := f.Trapdoors(queries)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, _, err := pool.SecRecBatch(context.Background(), tds); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkShardedBuild compares index-build wall time: the partitioned
// build shares one cuckoo placement and encrypts the per-shard
// projections in parallel goroutines.
func BenchmarkShardedBuild(b *testing.B) {
	for _, shards := range []int{1, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			f := testFrontend(b, "shard-bench")
			uploads, _ := testUploads(b, f, 300)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := f.BuildShardedIndex(uploads, shards, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
