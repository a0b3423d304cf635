// Command perfbench is the Clarens benchmark: four closed-loop grid
// workloads against in-process servers on loopback, end-to-end metrics
// from an untraced run and a per-layer breakdown from a traced run.
// README.md has the workloads, the metrics and the layer table.
//
// Run it through run.sh from the root of a checkout:
//
//	bash perfbench/run.sh --workload figure4 --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics are
// the end-to-end ones, with --trace 1 the per-layer ones. The lines
// before it are a human-readable report and one "meta" JSON line with the
// seed, the input digest and the environment.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"clarens"
)

// metric is one named figure in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// options are the command-line settings shared by every workload.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	setups   int   // set-ups per end-to-end run; setup_s is their median
	maxOps   int64 // stop a timed run after this many ops (0 = run for seconds); tests only
	corrupt  bool  // corrupt one expected reply, to prove the checks fire; tests only
	root     string
	commit   string
}

// setups is how many times an end-to-end run sets its workload up;
// setup_s is the median over them.
const setups = 5

// workloadNames lists the workloads in the order README.md describes them.
var workloadNames = []string{"figure4", "multicall_tls", "jobs", "federation"}

// newWorkload builds the named workload's inputs from the seed.
func newWorkload(name string, seed int64, corrupt bool) (workload, error) {
	switch name {
	case "figure4":
		return newFigure4(seed, corrupt), nil
	case "multicall_tls":
		return newMulticall(seed, corrupt), nil
	case "jobs":
		return newJobs(seed, corrupt), nil
	case "federation":
		return newFederation(seed, corrupt), nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames, ", "))
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "figure4", "workload: "+strings.Join(workloadNames, " | "))
	flag.Int64Var(&o.seed, "seed", 1, "seed the workload's inputs are generated from")
	flag.IntVar(&o.seconds, "seconds", 10, "length of each timed run")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics of an untraced run; 1: per-layer metrics of a traced run")
	flag.StringVar(&o.root, "root", ".", "checkout root; scratch files go under <root>/.bench_build")
	flag.StringVar(&o.commit, "commit", "unknown", "source commit recorded in the result")
	flag.Parse()
	o.trace = trace != 0
	o.setups = setups
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// run executes one benchmark run and prints its report and result line.
func run(o options) error {
	res, meta, err := execute(o, time.Now())
	if err != nil {
		return err
	}
	metaLine, _ := json.Marshal(meta)
	fmt.Printf("meta %s\n", metaLine)
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-40s %16.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// execute runs the workload o names and returns its result and the
// facts needed to re-check it.
func execute(o options, processStart time.Time) (*result, map[string]any, error) {
	if o.seconds < 1 {
		return nil, nil, fmt.Errorf("--seconds must be at least 1")
	}
	w, err := newWorkload(o.workload, o.seed, o.corrupt)
	if err != nil {
		return nil, nil, err
	}
	tmp := filepath.Join(o.root, ".bench_build", "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return nil, nil, err
	}
	scratch, err := os.MkdirTemp(tmp, "run-")
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(scratch)
	b := &bench{opts: o, scratch: scratch}

	meta := map[string]any{
		"workload":     o.workload,
		"seed":         o.seed,
		"input_digest": w.digest(),
		"trace":        o.trace,
		"seconds":      o.seconds,
		"callers":      callers,
		"nproc":        runtime.NumCPU(),
		"gomaxprocs":   runtime.GOMAXPROCS(0),
		"go_version":   runtime.Version(),
		"clarens":      clarens.Version,
		"commit":       o.commit,
		"network":      "loopback",
	}
	var res *result
	if o.trace {
		res, err = b.traced(w)
	} else {
		res, err = b.endToEnd(w, processStart)
	}
	if err != nil {
		return nil, nil, err
	}
	for n, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			res.Metrics[n] = metric{0, m.Unit} // no samples: JSON has no NaN
		}
	}
	return res, meta, nil
}
