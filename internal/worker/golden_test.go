package worker

import (
	"bufio"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/elan-sys/elan/internal/coord"
)

// The golden trajectories pin the live runtime's numerics bit for bit.
// Rewrite them (-update) only for a deliberate change of those numerics.
var updateGolden = flag.Bool("update", false, "rewrite testdata/*.golden from the current Fleet")

// goldenOp is one scripted action of a golden scenario.
type goldenOp struct {
	kind        string // "step", "out", "in" or "batch"
	n           int    // steps to run, workers to add/remove, or the new total batch
	ramp        int    // batch: LR ramp length
	progressive bool   // batch: ramp (true) or jump (false)
}

// goldenScenario is a fixed-seed elastic run replayed against a golden
// trajectory.
type goldenScenario struct {
	name         string
	workers, tbs int
	ops          []goldenOp
}

func steps(n int) goldenOp { return goldenOp{kind: "step", n: n} }

// elasticScenario scales 2→3→4 workers, changes the batch with a
// progressive LR ramp, scales in to 2 and finally jumps the batch back.
var elasticScenario = goldenScenario{
	name: "elastic", workers: 2, tbs: 24,
	ops: []goldenOp{
		steps(4),
		{kind: "out", n: 1}, steps(3),
		{kind: "out", n: 1}, steps(2),
		{kind: "batch", n: 48, ramp: 6, progressive: true}, steps(8),
		{kind: "in", n: 2}, steps(5),
		{kind: "batch", n: 24}, steps(3),
	},
}

// rampScenarios change the batch while an LR ramp is in progress, and
// exactly when one has just run out: the second change must scale the LR
// the schedule yields at that iteration, not the pre-ramp one.
var rampScenarios = []goldenScenario{
	{
		name: "midramp", workers: 2, tbs: 16,
		ops: []goldenOp{
			steps(5),
			{kind: "batch", n: 32, ramp: 8, progressive: true}, steps(3),
			{kind: "batch", n: 64, ramp: 8, progressive: true}, steps(12),
		},
	},
	{
		name: "rampend", workers: 2, tbs: 16,
		ops: []goldenOp{
			steps(5),
			{kind: "batch", n: 32, ramp: 4, progressive: true}, steps(4),
			{kind: "batch", n: 64, ramp: 4, progressive: true}, steps(8),
		},
	},
}

const (
	goldenLR          = 0.05
	goldenMomentum    = 0.9
	goldenSeed        = 13
	goldenBucketElems = 64 // several buckets of the 131-parameter model
)

var goldenLayers = []int{4, 16, 3}

// trajectory is what a scenario produces: the mean loss of every step and
// the final parameters of the lead replica.
type trajectory struct {
	losses []float64
	params []float64
}

// runFleetScenario replays sc on a Fleet. A scale request is admitted by
// the next Step once the AM is Ready; waiting for Ready first makes the
// admission iteration deterministic.
func runFleetScenario(t *testing.T, sc goldenScenario) trajectory {
	t.Helper()
	f, err := NewFleet(FleetConfig{
		Dataset:     dataset(t, 1024),
		LayerSizes:  goldenLayers,
		Workers:     sc.workers,
		TotalBatch:  sc.tbs,
		LR:          goldenLR,
		Momentum:    goldenMomentum,
		Seed:        goldenSeed,
		BucketElems: goldenBucketElems,
	})
	if err != nil {
		t.Fatalf("NewFleet: %v", err)
	}
	defer f.Close()
	var tr trajectory
	for _, op := range sc.ops {
		switch op.kind {
		case "step":
			for i := 0; i < op.n; i++ {
				l, err := f.Step()
				if err != nil {
					t.Fatalf("Step: %v", err)
				}
				tr.losses = append(tr.losses, l)
			}
		case "out", "in":
			if op.kind == "out" {
				err = f.RequestScaleOut(op.n)
			} else {
				err = f.RequestScaleIn(op.n)
			}
			if err != nil {
				t.Fatalf("%s %d: %v", op.kind, op.n, err)
			}
			deadline := time.Now().Add(10 * time.Second)
			for f.am.State() != coord.Ready {
				if time.Now().After(deadline) {
					t.Fatalf("%s %d: AM never became ready", op.kind, op.n)
				}
				time.Sleep(time.Millisecond)
			}
		case "batch":
			if err := f.SetTotalBatch(op.n, op.ramp, op.progressive); err != nil {
				t.Fatalf("SetTotalBatch: %v", err)
			}
		}
	}
	tr.params = exportState(t, f)[:f.agents[0].net.NumParams()]
	return tr
}

func goldenPath(name string) string { return filepath.Join("testdata", name+".golden") }

// writeGolden stores a trajectory as IEEE-754 bit patterns, one value per
// line, so the comparison is exact.
func writeGolden(t *testing.T, name string, tr trajectory) {
	t.Helper()
	var b strings.Builder
	for _, v := range tr.losses {
		fmt.Fprintf(&b, "loss %016x\n", math.Float64bits(v))
	}
	for _, v := range tr.params {
		fmt.Fprintf(&b, "param %016x\n", math.Float64bits(v))
	}
	if err := os.MkdirAll("testdata", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(goldenPath(name), []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}

func readGolden(t *testing.T, name string) trajectory {
	t.Helper()
	fh, err := os.Open(goldenPath(name))
	if err != nil {
		t.Fatalf("golden %s: %v (run with -update to record it)", name, err)
	}
	defer fh.Close()
	var tr trajectory
	sc := bufio.NewScanner(fh)
	for sc.Scan() {
		kind, hex, ok := strings.Cut(sc.Text(), " ")
		bits, err := strconv.ParseUint(hex, 16, 64)
		if !ok || err != nil {
			t.Fatalf("golden %s: bad line %q", name, sc.Text())
		}
		switch kind {
		case "loss":
			tr.losses = append(tr.losses, math.Float64frombits(bits))
		case "param":
			tr.params = append(tr.params, math.Float64frombits(bits))
		default:
			t.Fatalf("golden %s: bad line %q", name, sc.Text())
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return tr
}

// requireSameBits fails at the first loss or parameter whose bit pattern
// differs from the golden trajectory.
func requireSameBits(t *testing.T, got, want trajectory) {
	t.Helper()
	if len(got.losses) != len(want.losses) || len(got.params) != len(want.params) {
		t.Fatalf("%d losses / %d params, golden has %d / %d",
			len(got.losses), len(got.params), len(want.losses), len(want.params))
	}
	for i := range want.losses {
		if math.Float64bits(got.losses[i]) != math.Float64bits(want.losses[i]) {
			t.Fatalf("step %d loss %v, golden %v", i, got.losses[i], want.losses[i])
		}
	}
	for i := range want.params {
		if math.Float64bits(got.params[i]) != math.Float64bits(want.params[i]) {
			t.Fatalf("param %d = %v, golden %v", i, got.params[i], want.params[i])
		}
	}
}

// TestFleetMatchesGolden replays scripted elastic scenarios on a Fleet and
// requires bit-identical per-step losses and final parameters against the
// trajectories in testdata/: scale-out 2→3→4, a progressive batch change,
// scale-in to 2, and batch changes that land mid-ramp and right as a ramp
// ends.
func TestFleetMatchesGolden(t *testing.T) {
	for _, sc := range append([]goldenScenario{elasticScenario}, rampScenarios...) {
		t.Run(sc.name, func(t *testing.T) {
			got := runFleetScenario(t, sc)
			if *updateGolden {
				writeGolden(t, sc.name, got)
			}
			requireSameBits(t, got, readGolden(t, sc.name))
		})
	}
}
