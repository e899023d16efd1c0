package main

// Short-mode self-test of the harness: every workload, untraced and
// traced, on a small deployment. Run from this directory:
//
//	go test -count=1 .

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// benchFile is the part of BENCHMARK.json the harness must honour.
type benchFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadBench(t *testing.T) benchFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchFile
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// runShort runs one short workload and returns its report lines (name →
// "value unit") and its parsed JSON line.
func runShort(t *testing.T, workload string, seed int64, trace bool) (map[string]string, map[string]any) {
	t.Helper()
	res, err := run(options{workload: workload, seed: seed, seconds: 0.5, trace: trace, short: true})
	if err != nil {
		t.Fatalf("%s trace=%v: %v", workload, trace, err)
	}
	var out bytes.Buffer
	if err := res.print(&out, trace); err != nil {
		t.Fatalf("%s trace=%v: print: %v", workload, trace, err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	report := make(map[string]string)
	for _, l := range lines[:len(lines)-1] {
		f := strings.Fields(l)
		if len(f) == 4 && f[0] == "metric" {
			report[f[1]] = f[2] + " " + f[3]
		}
	}
	var last map[string]any
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("%s trace=%v: last line is not JSON: %v", workload, trace, err)
	}
	return report, last
}

func TestShortRunsPrintEveryMetric(t *testing.T) {
	b := loadBench(t)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the harness has %d", len(b.Workloads), len(workloads))
	}
	for _, w := range b.Workloads {
		for _, trace := range []bool{false, true} {
			report, last := runShort(t, w.Name, 1, trace)
			if last["correct"] != true || last["failed"] != float64(0) {
				t.Errorf("%s trace=%v: correct=%v failed=%v", w.Name, trace, last["correct"], last["failed"])
			}
			if a, _ := last["attempted"].(float64); a < 1 {
				t.Errorf("%s trace=%v: attempted=%v", w.Name, trace, last["attempted"])
			}
			want := b.EndToEnd
			if trace {
				want = b.PerLayer
			}
			metrics, _ := last["metrics"].(map[string]any)
			if len(metrics) != len(want) {
				t.Errorf("%s trace=%v: JSON carries %d metrics, BENCHMARK.json lists %d", w.Name, trace, len(metrics), len(want))
			}
			for _, m := range want {
				got, ok := metrics[m.Name].(map[string]any)
				if !ok || got["unit"] != m.Unit {
					t.Errorf("%s trace=%v: JSON metric %s = %v, want unit %s", w.Name, trace, m.Name, metrics[m.Name], m.Unit)
				}
				if line, ok := report[m.Name]; !ok || !strings.HasSuffix(line, " "+m.Unit) {
					t.Errorf("%s trace=%v: report line for %s = %q, want unit %s", w.Name, trace, m.Name, line, m.Unit)
				}
			}
			if !trace {
				for _, name := range []string{"discover_p99_ms", "error_rate", "recall_at_10"} {
					if _, ok := report[name]; !ok {
						t.Errorf("%s: no report line for %s", w.Name, name)
					}
				}
			}
			if !trace && w.Name == "dynamic-churn" {
				for _, name := range []string{"update_ops_per_s", "update_p50_ms", "update_p99_ms"} {
					if _, ok := report[name]; !ok {
						t.Errorf("%s: no report line for %s", w.Name, name)
					}
				}
			}
		}
	}
}

// TestPrefixCountsRepeat runs the traced prefix twice per seed — seed 1,
// used while the benchmark was written, and 8675309, which was not — and
// requires identical per-operation counts.
func TestPrefixCountsRepeat(t *testing.T) {
	counts := map[string][]string{
		"discover-cold": {"prefix.buckets_per_query", "prefix.profiles_per_query", "prefix.bytes_per_query"},
		"dynamic-churn": {"prefix.rounds_per_update"},
	}
	for workload, names := range counts {
		for _, seed := range []int64{1, 8675309} {
			a, _ := runShort(t, workload, seed, true)
			b, _ := runShort(t, workload, seed, true)
			for _, n := range names {
				if a[n] == "" || a[n] != b[n] {
					t.Errorf("%s seed %d: %s = %q then %q", workload, seed, n, a[n], b[n])
				}
			}
		}
	}
}
