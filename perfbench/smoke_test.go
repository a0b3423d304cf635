package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"
)

// benchmarkFile is the part of ../BENCHMARK.json the smoke test checks.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// smokeOptions runs a handful of ops: one set-up, a short run cut off
// after a few ops.
func smokeOptions(workload string) options {
	return options{workload: workload, seed: 7, seconds: 2, setups: 1, maxOps: 16, root: "..", commit: "smoke"}
}

// TestSmoke runs every workload briefly, untraced and traced, and checks
// that each metric BENCHMARK.json names is emitted with its unit and
// that every reply passed its check.
func TestSmoke(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	for _, wl := range bf.Workloads {
		if _, err := newWorkload(wl.Name, 1, false); err != nil {
			t.Errorf("BENCHMARK.json names workload %q: %v", wl.Name, err)
		}
	}
	for _, name := range workloadNames {
		for _, trace := range []bool{false, true} {
			o := smokeOptions(name)
			o.trace = trace
			res, meta, err := execute(o, time.Now())
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", name, trace, res.Correct, res.Attempted, res.Failed)
			}
			if meta["input_digest"] == "" || meta["seed"] != int64(7) {
				t.Errorf("%s: meta lacks seed or digest: %v", name, meta)
			}
			want := bf.EndToEnd
			if trace {
				want = bf.PerLayer
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok {
					t.Errorf("%s trace=%v: metric %s missing", name, trace, m.Name)
				} else if got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s has unit %q, BENCHMARK.json says %q", name, trace, m.Name, got.Unit, m.Unit)
				}
			}
			if trace && name == "federation" {
				checkMetasched(t, res.Metrics)
			}
			if !trace {
				for _, m := range bf.EndToEnd {
					if res.Metrics[m.Name].Value == 0 {
						t.Errorf("%s: end-to-end metric %s is 0", name, m.Name)
					}
				}
			}
		}
	}
}

// checkMetasched checks the metasched metrics a traced federation run
// emits. BENCHMARK.json does not name them while federation is left out
// of it, so they are listed here.
func checkMetasched(t *testing.T, got map[string]metric) {
	t.Helper()
	for name, unit := range map[string]string{
		"metasched.forwarded_ratio":            "ratio",
		"metasched.status_rpcs_per_forward":    "count",
		"metasched.push_events_per_forward":    "count",
		"metasched.pullback_bytes_per_forward": "B",
		"metasched.fallbacks":                  "count",
	} {
		if m, ok := got[name]; !ok || m.Unit != unit {
			t.Errorf("federation trace=true: metric %s missing or not in %s: %+v", name, unit, m)
		}
	}
	if got["metasched.forwarded_ratio"].Value == 0 {
		t.Error("federation trace=true: no job was forwarded")
	}
}

// TestCorruptedExpectationIsCaught proves the reply checks fire: with
// one expected reply corrupted, every workload must report failed ops
// and an incorrect result.
func TestCorruptedExpectationIsCaught(t *testing.T) {
	for _, name := range workloadNames {
		o := smokeOptions(name)
		o.corrupt = true
		res, _, err := execute(o, time.Now())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Correct || res.Failed == 0 {
			t.Errorf("%s: corrupted expectation not caught: correct=%v attempted=%d failed=%d",
				name, res.Correct, res.Attempted, res.Failed)
		}
	}
}
