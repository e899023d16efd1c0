package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"time"
)

// metric is one measured value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// units names every metric the benchmark can print. endToEnd and perLayer
// are the subsets the JSON line carries (they mirror BENCHMARK.json); the
// rest are printed as report lines only.
var units = map[string]string{
	// End to end (--trace 0).
	"discover_qps":     "1/s",
	"discover_p50_ms":  "ms",
	"discover_p99_ms":  "ms",
	"goodput_qps":      "1/s",
	"setup_s":          "s",
	"heap_mb":          "MB",
	"recall_at_10":     "ratio",
	"error_rate":       "ratio",
	"discover_count":   "count",
	"cpu_ms_per_op":    "ms",
	"update_ops_per_s": "1/s",
	"update_p50_ms":    "ms",
	"update_p99_ms":    "ms",
	"update_count":     "count",
	"churn_kicks":      "count",

	// Per layer (--trace 1).
	"frontend.trapdoor_us":                    "us",
	"frontend.decrypt_us":                     "us",
	"frontend.rank_us":                        "us",
	"frontend.cache_hit_ratio":                "ratio",
	"frontend.cache_invalidations_per_update": "count",
	"frontend.coalesce_batch_mean":            "count",
	"frontend.coalesce_wait_us":               "us",
	"frontend.admission_reject_share":         "ratio",
	"frontend.serving_self_us":                "us",
	"frontend.dyn_search_self_us":             "us",
	"frontend.dyn_update_self_us":             "us",
	"shard.flush_us_p50":                      "us",
	"shard.flush_us_p99":                      "us",
	"shard.leg_us_p50":                        "us",
	"shard.leg_us_p99":                        "us",
	"shard.leg_skew_us":                       "us",
	"shard.failed_legs":                       "count",
	"transport.bytes_per_query":               "bytes",
	"transport.wire_us":                       "us",
	"transport.bytes_per_update":              "bytes",
	"cloud.secrec_us":                         "us",
	"cloud.profiles_per_query":                "count",
	"cloud.buckets_per_query":                 "count",
	"core.rounds_per_update":                  "count",
	"core.fetch_us":                           "us",
	"core.store_us":                           "us",
	"core.fetch_profiles_us":                  "us",
	"crypt.prf_ops_per_query":                 "count",
	"subs.eval_us":                            "us",
	"subs.notifications_per_update":           "count",
	"runtime.alloc_bytes_per_op":              "bytes",
	"loadgen.lag_ms":                          "ms",
	"trace.requests":                          "count",
	"trace.nesting_violations":                "count",
	"tracing.overhead_discover_qps":           "1/s",
	"tracing.overhead_discover_p50_ms":        "ms",
	"tracing.overhead_discover_p99_ms":        "ms",
	"tracing.overhead_goodput_qps":            "1/s",
	"prefix.buckets_per_query":                "count",
	"prefix.profiles_per_query":               "count",
	"prefix.bytes_per_query":                  "bytes",
	"prefix.rounds_per_update":                "count",
}

// endToEnd is the --trace 0 JSON metric set: only metrics every workload
// reports with a non-zero value and a run-to-run spread inside a 0.25
// bound on a shared 2-vCPU host. discover_p99_ms, error_rate,
// recall_at_10 and the update metrics (dynamic-churn only) are printed as
// report lines: see WORKLOADS.md.
var endToEnd = []string{
	"discover_qps", "discover_p50_ms", "goodput_qps", "cpu_ms_per_op",
	"setup_s", "heap_mb",
}

// perLayer is the --trace 1 JSON metric set. A layer a workload bypasses
// reports 0.
var perLayer = []string{
	"frontend.trapdoor_us", "frontend.decrypt_us", "frontend.rank_us",
	"frontend.cache_hit_ratio", "frontend.cache_invalidations_per_update",
	"frontend.coalesce_batch_mean", "frontend.coalesce_wait_us",
	"frontend.admission_reject_share", "frontend.serving_self_us",
	"frontend.dyn_search_self_us", "frontend.dyn_update_self_us",
	"shard.flush_us_p50", "shard.flush_us_p99", "shard.leg_us_p50",
	"shard.leg_us_p99", "shard.leg_skew_us", "shard.failed_legs",
	"transport.bytes_per_query", "transport.wire_us", "transport.bytes_per_update",
	"cloud.secrec_us", "cloud.profiles_per_query", "cloud.buckets_per_query",
	"core.rounds_per_update", "core.fetch_us", "core.store_us",
	"core.fetch_profiles_us", "crypt.prf_ops_per_query", "subs.eval_us",
	"subs.notifications_per_update", "runtime.alloc_bytes_per_op",
	"loadgen.lag_ms", "trace.requests", "trace.nesting_violations",
	"tracing.overhead_discover_qps", "tracing.overhead_discover_p50_ms",
	"tracing.overhead_discover_p99_ms", "tracing.overhead_goodput_qps",
	"prefix.buckets_per_query", "prefix.profiles_per_query",
	"prefix.bytes_per_query", "prefix.rounds_per_update",
}

// result is one run's outcome.
type result struct {
	correct   bool
	attempted int
	failed    int
	values    map[string]float64
	problems  []string // correctness failures, printed as "# check failed" lines
}

func newResult() *result { return &result{correct: true, values: make(map[string]float64)} }

func (r *result) set(name string, v float64) {
	if _, ok := units[name]; !ok {
		panic("perfbench: metric " + name + " has no unit")
	}
	r.values[name] = v
}

// fail records a correctness failure: the run still prints its numbers,
// with "correct": false.
func (r *result) fail(format string, args ...any) {
	r.correct = false
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// print writes every metric as a report line, then the JSON line.
func (r *result) print(w io.Writer, trace bool) error {
	for _, p := range r.problems {
		fmt.Fprintln(w, "# check failed:", p)
	}
	names := make([]string, 0, len(r.values))
	for n := range r.values {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "metric %s %v %s\n", n, r.values[n], units[n])
	}
	set := endToEnd
	if trace {
		set = perLayer
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.correct, r.attempted, r.failed, make(map[string]metric, len(set))}
	for _, n := range set {
		v, ok := r.values[n]
		if !ok {
			return fmt.Errorf("metric %s was not measured", n)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", n, v)
		}
		out.Metrics[n] = metric{Value: v, Unit: units[n]}
	}
	if out.Attempted < 1 {
		return fmt.Errorf("no operation was attempted")
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// quantile returns the nearest-rank q-quantile of sorted durations.
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

func sortDurations(d []time.Duration) {
	sort.Slice(d, func(a, b int) bool { return d[a] < d[b] })
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

// ratio is a/b, or 0 when nothing was counted.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// medianFloat returns the median of xs (mean of the middle pair when even).
func medianFloat(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
