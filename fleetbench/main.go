// Command fleetbench is the repository's end-to-end benchmark. It drives a
// live worker.Fleet through fixed-seed scripted workloads in a closed loop
// (one driver goroutine calls Step serially), times every call it makes
// into the runtime, checks the results, and prints the end-to-end metrics
// (--trace 0) or, from a separate run with span recording on, the
// per-layer ledger (--trace 1).
//
// Run it from the repository root through the wrapper that builds it:
//
//	bash fleetbench/run.sh --workload elastic-churn --seed 7 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; the line before it records the
// provenance of the run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// gitSHA is stamped by run.sh; "unknown" outside a git checkout.
var gitSHA = "unknown"

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type provenance struct {
	GitSHA     string         `json:"git_sha"`
	GoVersion  string         `json:"go_version"`
	GOOS       string         `json:"goos"`
	GOARCH     string         `json:"goarch"`
	NumCPU     int            `json:"num_cpu"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	Workload   string         `json:"workload"`
	Seed       int64          `json:"seed"`
	Seconds    float64        `json:"seconds"`
	Trace      bool           `json:"trace"`
	Reps       map[string]int `json:"repetitions"`
	// ReferenceLoss is the bit pattern of the loss after referenceSteps on
	// a fresh fleet; equal seeds must print equal values on every run.
	ReferenceLoss string   `json:"reference_loss_bits"`
	Problems      []string `json:"problems,omitempty"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("fleetbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "seed for the dataset, the model and the schedule")
	seconds := fs.Float64("seconds", 10, "length of the timed phase in seconds")
	trace := fs.Int("trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sp, ok := specs[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "fleetbench: need --workload (%s), --seconds > 0 and --trace 0|1\n",
			strings.Join(workloadNames(), ", "))
		return 2
	}

	d := newDriver(sp, *seed)
	dur := time.Duration(*seconds * float64(time.Second))
	var (
		metrics map[string]metric
		ref     float64
	)
	if *trace == 1 {
		metrics, ref = runTraced(d, dur)
	} else {
		metrics, ref = runUntraced(d, dur)
	}
	if err := checkContract(metrics, *trace == 1); err != nil {
		d.problem("%v", err)
	}
	for name, m := range metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			d.problem("metric %s is %v", name, m.Value)
			metrics[name] = metric{0, m.Unit}
		}
	}

	prov := provenance{
		GitSHA: gitSHA, GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Workload: *workload, Seed: *seed, Seconds: *seconds, Trace: *trace == 1,
		Reps:          d.reps(),
		ReferenceLoss: fmt.Sprintf("%016x", math.Float64bits(ref)),
		Problems:      d.problems,
	}
	res := result{Correct: len(d.problems) == 0, Attempted: d.attempted, Failed: d.failed, Metrics: metrics}
	writeTable(stdout, metrics)
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(map[string]provenance{"provenance": prov}); err != nil {
		fmt.Fprintln(stderr, "fleetbench:", err)
		return 1
	}
	if err := enc.Encode(res); err != nil {
		fmt.Fprintln(stderr, "fleetbench:", err)
		return 1
	}
	if !res.Correct {
		return 1
	}
	return 0
}

// reps reports how many samples each timed operation contributed.
func (d *driver) reps() map[string]int {
	r := map[string]int{}
	for op, v := range d.obs {
		r[op] = len(v)
	}
	return r
}

func writeTable(w io.Writer, metrics map[string]metric) {
	names := make([]string, 0, len(metrics))
	for n := range metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%-44s %16.4f %s\n", n, metrics[n].Value, metrics[n].Unit)
	}
}

// contract is the part of BENCHMARK.json (read from the working directory,
// the repository root) that names the metrics each mode must report.
type contract struct {
	EndToEnd []contractMetric `json:"end_to_end"`
	PerLayer []contractMetric `json:"per_layer"`
}

type contractMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// checkContract verifies that the run reported exactly the metrics
// BENCHMARK.json lists for its mode, with the listed units.
func checkContract(metrics map[string]metric, traced bool) error {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("read metric list: %w", err)
	}
	var c contract
	if err := json.Unmarshal(raw, &c); err != nil {
		return fmt.Errorf("parse BENCHMARK.json: %w", err)
	}
	want := c.EndToEnd
	if traced {
		want = c.PerLayer
	}
	var problems []string
	for _, cm := range want {
		got, ok := metrics[cm.Name]
		switch {
		case !ok:
			problems = append(problems, cm.Name+" not measured")
		case got.Unit != cm.Unit:
			problems = append(problems, fmt.Sprintf("%s in %s, listed in %s", cm.Name, got.Unit, cm.Unit))
		}
	}
	if len(metrics) != len(want) {
		problems = append(problems, fmt.Sprintf("%d metrics measured, %d listed", len(metrics), len(want)))
	}
	if len(problems) > 0 {
		return fmt.Errorf("metrics differ from BENCHMARK.json: %s", strings.Join(problems, "; "))
	}
	return nil
}

func workloadNames() []string {
	var names []string
	for n := range specs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
