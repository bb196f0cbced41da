// Package integration contains cross-subsystem end-to-end tests: the full
// Elan stack (coordination over a lossy message bus + real training + state
// replication), the S&R restart path through a delta checkpoint, and
// migration of a live fleet to a fresh set of worker goroutines.
package integration

import (
	"bytes"
	"encoding/gob"
	"math"
	"testing"
	"time"

	"github.com/elan-sys/elan/internal/checkpoint"
	"github.com/elan-sys/elan/internal/data"
	"github.com/elan-sys/elan/internal/telemetry"
	"github.com/elan-sys/elan/internal/transport"
	"github.com/elan-sys/elan/internal/worker"
)

func dataset(t *testing.T, seed int64, n int) *data.Dataset {
	t.Helper()
	d, err := data.GenGaussianMixture(seed, n, 4, 3)
	if err != nil {
		t.Fatalf("GenGaussianMixture: %v", err)
	}
	return d
}

// liveFleet builds a fleet; cfg supplies the optional wiring (bus,
// metrics, checkpoint store) on top of the shared training setup.
func liveFleet(t *testing.T, workers, tbs int, cfg worker.FleetConfig) *worker.Fleet {
	t.Helper()
	cfg.Dataset = dataset(t, 11, 1024)
	cfg.LayerSizes = []int{4, 16, 3}
	cfg.Workers = workers
	cfg.TotalBatch = tbs
	cfg.LR = 0.05
	cfg.Momentum = 0.9
	cfg.Seed = 11
	f, err := worker.NewFleet(cfg)
	if err != nil {
		t.Fatalf("NewFleet: %v", err)
	}
	t.Cleanup(f.Close)
	return f
}

func steps(t *testing.T, f *worker.Fleet, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if _, err := f.Step(); err != nil {
			t.Fatalf("Step: %v", err)
		}
	}
}

// TestElasticStackOverLossyBus drives the full adjustment protocol over a
// bus with 25% message loss while real training runs: the scheduler
// requests a scale-out through the AM service, the new agents start and
// report over the bus, the lead worker coordinates between iterations, and
// when the adjustment fires the fleet performs replication and group
// reconstruction. Exactly one adjustment must be applied, training must
// keep converging, and replicas stay consistent.
func TestElasticStackOverLossyBus(t *testing.T) {
	cfg := transport.DefaultBusConfig()
	cfg.DropRate = 0.25
	cfg.Seed = 77
	cfg.AckTimeout = 5 * time.Millisecond
	cfg.MaxRetries = 100
	bus := transport.NewBus(cfg)
	t.Cleanup(bus.Close)
	reg := telemetry.NewRegistry()
	f := liveFleet(t, 2, 32, worker.FleetConfig{Bus: bus, Metrics: reg})

	// 2 -> 4 workers keeps divisibility of TBS 32.
	if err := f.RequestScaleOut(2); err != nil {
		t.Fatalf("RequestScaleOut: %v", err)
	}
	for iter := 0; iter < 200; iter++ {
		if _, err := f.Step(); err != nil {
			t.Fatalf("Step %d: %v", iter, err)
		}
		if f.NumWorkers() == 4 && iter > 120 {
			break
		}
	}
	if n := reg.Counter("worker_adjustments_total").Value(); n != 1 {
		t.Fatalf("adjustment applied %d times, want exactly 1", n)
	}
	if f.NumWorkers() != 4 {
		t.Fatalf("workers = %d", f.NumWorkers())
	}
	if !f.ReplicasConsistent() {
		t.Fatal("replicas inconsistent after bus-driven adjustment")
	}
	// Training converged meaningfully.
	_, acc, err := f.Evaluate(dataset(t, 12, 512))
	if err != nil {
		t.Fatalf("Evaluate: %v", err)
	}
	if acc < 0.55 {
		t.Fatalf("accuracy %.3f too low after end-to-end run", acc)
	}
}

// TestSRCheckpointRestartPath exercises the Shutdown-&-Restart path on real
// state: train, checkpoint, start a fresh fleet with a different worker
// count on the same checkpoint store, restore the full manifest chain, and
// verify the model and data position carried over exactly.
func TestSRCheckpointRestartPath(t *testing.T) {
	ds := checkpoint.NewDeltaStore(checkpoint.DeltaConfig{})
	job := liveFleet(t, 2, 32, worker.FleetConfig{Checkpoints: ds})
	steps(t, job, 50)
	preLoss, preAcc, err := job.Evaluate(dataset(t, 12, 512))
	if err != nil {
		t.Fatalf("Evaluate: %v", err)
	}
	st, err := job.SaveCheckpoint()
	if err != nil {
		t.Fatalf("SaveCheckpoint: %v", err)
	}
	// The simulated cost of this checkpoint on the FS model is positive
	// and scales with the state.
	if st.BytesWritten <= 0 || checkpoint.DefaultFSModel().SaveTime(st.BytesWritten, 0) <= 0 {
		t.Fatalf("checkpoint of %d bytes has no save cost", st.BytesWritten)
	}

	// "Restart" with 4 workers (the S&R scale-out path).
	restarted := liveFleet(t, 4, 32, worker.FleetConfig{Checkpoints: ds})
	if _, err := restarted.RestoreCheckpoint(); err != nil {
		t.Fatalf("RestoreCheckpoint: %v", err)
	}
	if restarted.Iteration() != 50 {
		t.Fatalf("restored iteration = %d", restarted.Iteration())
	}
	postLoss, postAcc, err := restarted.Evaluate(dataset(t, 12, 512))
	if err != nil {
		t.Fatalf("Evaluate restored: %v", err)
	}
	if postLoss != preLoss || postAcc != preAcc {
		t.Fatalf("restored model differs: loss %v vs %v, acc %v vs %v",
			postLoss, preLoss, postAcc, preAcc)
	}
	if !restarted.ReplicasConsistent() {
		t.Fatal("restored replicas inconsistent")
	}
	// And training continues from where it stopped.
	steps(t, restarted, 20)
	if restarted.Iteration() != 70 {
		t.Fatalf("iteration after resume = %d", restarted.Iteration())
	}
}

// TestMigrationPreservesTraining migrates a live fleet's full state to a
// fresh fleet (new agent goroutines) through a shared delta checkpoint
// store and checks bit-exact continuation.
func TestMigrationPreservesTraining(t *testing.T) {
	ds := checkpoint.NewDeltaStore(checkpoint.DeltaConfig{})
	src := liveFleet(t, 4, 32, worker.FleetConfig{Checkpoints: ds})
	steps(t, src, 40)
	if _, err := src.SaveCheckpoint(); err != nil {
		t.Fatalf("SaveCheckpoint: %v", err)
	}
	dst := liveFleet(t, 4, 32, worker.FleetConfig{Checkpoints: ds})
	if _, err := dst.RestoreCheckpoint(); err != nil {
		t.Fatalf("RestoreCheckpoint: %v", err)
	}
	// Both fleets now step in lockstep and must produce identical losses
	// (same state, same serial cursor, same data).
	for i := 0; i < 10; i++ {
		a, err := src.Step()
		if err != nil {
			t.Fatalf("src Step: %v", err)
		}
		b, err := dst.Step()
		if err != nil {
			t.Fatalf("dst Step: %v", err)
		}
		if math.Float64bits(a) != math.Float64bits(b) {
			t.Fatalf("step %d: losses diverged %v vs %v", i, a, b)
		}
	}
}

// ckptHeader mirrors the fleet's checkpoint header by field name, which is
// how gob matches fields, so tests can forge corrupt checkpoints.
type ckptHeader struct {
	Iter     int
	TBS      int
	LR0, LRT float64
	T0, T    int
	Cursor   int
}

// TestSnapshotValidation covers the restore error paths: a checkpoint
// whose state vector is short, whose LR schedule is negative, or whose
// loader cursor is negative is rejected, and the fleet trains on
// unchanged.
func TestSnapshotValidation(t *testing.T) {
	ds := checkpoint.NewDeltaStore(checkpoint.DeltaConfig{})
	job := liveFleet(t, 2, 32, worker.FleetConfig{Checkpoints: ds, CheckpointName: "job"})
	steps(t, job, 5)
	if _, err := job.SaveCheckpoint(); err != nil {
		t.Fatalf("SaveCheckpoint: %v", err)
	}
	hdrB, state, _, err := ds.Restore("job")
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	var good ckptHeader
	if err := gob.NewDecoder(bytes.NewReader(hdrB)).Decode(&good); err != nil {
		t.Fatalf("decode header: %v", err)
	}
	if good.Iter != 5 || good.LR0 <= 0 {
		t.Fatalf("header = %+v", good)
	}
	forge := func(h ckptHeader, state []float64) {
		t.Helper()
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(h); err != nil {
			t.Fatal(err)
		}
		if _, err := ds.Save("job", buf.Bytes(), state); err != nil {
			t.Fatalf("Save: %v", err)
		}
	}
	negLR, negCursor := good, good
	negLR.LR0 = -1
	negCursor.Cursor = -5
	for _, bad := range []struct {
		name  string
		hdr   ckptHeader
		state []float64
	}{
		{"short state", good, state[:3]},
		{"negative LR", negLR, state},
		{"negative cursor", negCursor, state},
	} {
		forge(bad.hdr, bad.state)
		if _, err := job.RestoreCheckpoint(); err == nil {
			t.Fatalf("%s accepted", bad.name)
		}
	}
	steps(t, job, 1)
	if job.Iteration() != 6 || !job.ReplicasConsistent() {
		t.Fatalf("fleet changed by rejected restores: iteration %d", job.Iteration())
	}
}
