package core_test

// Live-training properties of the Elan runtime: the real-SGD counterpart
// of this package's simulated Job, exercised end to end on worker.Fleet.
// Scale requests go through the AM and are admitted by a later Step, so
// the tests step until the worker count reaches its target.

import (
	"testing"

	"github.com/elan-sys/elan/internal/checkpoint"
	"github.com/elan-sys/elan/internal/data"
	"github.com/elan-sys/elan/internal/scaling"
	"github.com/elan-sys/elan/internal/worker"
)

func liveDataset(t *testing.T, n int) *data.Dataset {
	t.Helper()
	d, err := data.GenGaussianMixture(17, n, 2, 3)
	if err != nil {
		t.Fatalf("GenGaussianMixture: %v", err)
	}
	return d
}

func liveFleet(t *testing.T, workers, tbs int) *worker.Fleet {
	t.Helper()
	f, err := worker.NewFleet(worker.FleetConfig{
		Dataset:    liveDataset(t, 2048),
		LayerSizes: []int{2, 24, 3},
		Workers:    workers,
		TotalBatch: tbs,
		LR:         0.05,
		Momentum:   0.9,
		Seed:       7,
	})
	if err != nil {
		t.Fatalf("NewFleet: %v", err)
	}
	t.Cleanup(f.Close)
	return f
}

// stepTo trains until the fleet has completed iter iterations.
func stepTo(t *testing.T, f *worker.Fleet, iter int) float64 {
	t.Helper()
	var loss float64
	for f.Iteration() < iter {
		l, err := f.Step()
		if err != nil {
			t.Fatalf("Step %d: %v", f.Iteration(), err)
		}
		loss = l
	}
	return loss
}

// stepUntilWorkers trains until a requested adjustment has brought the
// fleet to want workers.
func stepUntilWorkers(t *testing.T, f *worker.Fleet, want int) {
	t.Helper()
	for i := 0; f.NumWorkers() != want; i++ {
		if i == 1000 {
			t.Fatalf("workers = %d after %d steps, want %d", f.NumWorkers(), i, want)
		}
		if _, err := f.Step(); err != nil {
			t.Fatalf("Step: %v", err)
		}
	}
}

// TestNewLiveJobValidation rejects live-job configs the runtime cannot
// train: no data, no or indivisible workers, a model with no layers or
// whose input/output sizes don't match the dataset, and a zero LR.
func TestNewLiveJobValidation(t *testing.T) {
	d := liveDataset(t, 100)
	cases := []worker.FleetConfig{
		{Dataset: nil, LayerSizes: []int{2, 3}, Workers: 2, TotalBatch: 8, LR: 0.1},
		{Dataset: d, LayerSizes: []int{2, 3}, Workers: 0, TotalBatch: 8, LR: 0.1},
		{Dataset: d, LayerSizes: []int{2, 3}, Workers: 3, TotalBatch: 8, LR: 0.1},
		{Dataset: d, LayerSizes: []int{2}, Workers: 2, TotalBatch: 8, LR: 0.1},
		{Dataset: d, LayerSizes: []int{5, 3}, Workers: 2, TotalBatch: 8, LR: 0.1},
		{Dataset: d, LayerSizes: []int{2, 4}, Workers: 2, TotalBatch: 8, LR: 0.1},
		{Dataset: d, LayerSizes: []int{2, 3}, Workers: 2, TotalBatch: 8, LR: 0},
	}
	for i, cfg := range cases {
		f, err := worker.NewFleet(cfg)
		if err == nil {
			f.Close()
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

// TestLiveJobDeltaRoundTrip trains, delta-saves, trains further, then
// restores. An immediate re-save must write nothing (every chunk is
// clean), and the restored job must land bit-identical on the checkpointed
// state: same iteration, the same evaluation loss, and the same losses for
// the two steps that follow the save (the second of which depends on the
// restored momentum and loader cursor, not just the parameters).
func TestLiveJobDeltaRoundTrip(t *testing.T) {
	ds := checkpoint.NewDeltaStore(checkpoint.DeltaConfig{ChunkElems: 16, CompactEvery: 100})
	f, err := worker.NewFleet(worker.FleetConfig{
		Dataset:     liveDataset(t, 2048),
		LayerSizes:  []int{2, 24, 3},
		Workers:     2,
		TotalBatch:  8,
		LR:          0.05,
		Momentum:    0.9,
		Seed:        7,
		Checkpoints: ds,
	})
	if err != nil {
		t.Fatalf("NewFleet: %v", err)
	}
	t.Cleanup(f.Close)
	eval := liveDataset(t, 256)

	stepTo(t, f, 3)
	st1, err := f.SaveCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	if !st1.Full || st1.ChunksWritten == 0 {
		t.Fatalf("first save stats = %+v", st1)
	}
	st2, err := f.SaveCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	if st2.Full || st2.ChunksDirty != 0 || st2.BytesWritten != 0 {
		t.Fatalf("clean re-save stats = %+v", st2)
	}
	wantIter := f.Iteration()
	wantEval, _, err := f.Evaluate(eval)
	if err != nil {
		t.Fatal(err)
	}
	var want [2]float64
	for i := range want {
		if want[i], err = f.Step(); err != nil {
			t.Fatal(err)
		}
	}

	// Train past the checkpoint, then recover from it.
	stepTo(t, f, f.Iteration()+4)
	if _, err := f.RestoreCheckpoint(); err != nil {
		t.Fatal(err)
	}
	if f.Iteration() != wantIter {
		t.Fatalf("iteration = %d, want %d", f.Iteration(), wantIter)
	}
	gotEval, _, err := f.Evaluate(eval)
	if err != nil {
		t.Fatal(err)
	}
	if gotEval != wantEval {
		t.Fatalf("evaluation loss %v, want %v (not bit-identical)", gotEval, wantEval)
	}
	for i := range want {
		got, err := f.Step()
		if err != nil {
			t.Fatal(err)
		}
		if got != want[i] {
			t.Fatalf("step %d after restore: loss %v, want %v (not bit-identical)", i, got, want[i])
		}
	}
	if !f.ReplicasConsistent() {
		t.Fatal("replicas diverged after delta restore")
	}
}

func TestLiveTrainingConverges(t *testing.T) {
	f := liveFleet(t, 4, 64)
	first, err := f.Step()
	if err != nil {
		t.Fatalf("Step: %v", err)
	}
	last := stepTo(t, f, 150)
	if last >= first*0.7 {
		t.Fatalf("loss barely moved: %v -> %v", first, last)
	}
	_, acc, err := f.Evaluate(liveDataset(t, 512))
	if err != nil {
		t.Fatalf("Evaluate: %v", err)
	}
	if acc < 0.6 {
		t.Fatalf("accuracy = %v, want >= 0.6", acc)
	}
	if f.Iteration() != 150 {
		t.Fatalf("Iteration = %d", f.Iteration())
	}
}

func TestLiveReplicasStayConsistent(t *testing.T) {
	f := liveFleet(t, 4, 32)
	if !f.ReplicasConsistent() {
		t.Fatal("replicas differ at init")
	}
	stepTo(t, f, 20)
	if !f.ReplicasConsistent() {
		t.Fatal("replicas diverged during training")
	}
}

func TestLiveScaleOutPreservesState(t *testing.T) {
	f := liveFleet(t, 2, 32)
	stepTo(t, f, 10)
	if err := f.RequestScaleOut(2); err != nil {
		t.Fatalf("RequestScaleOut: %v", err)
	}
	stepUntilWorkers(t, f, 4)
	// The data-parallel invariant must hold right after replication: the
	// new workers carry the trained state, not fresh init.
	if !f.ReplicasConsistent() {
		t.Fatal("replicas inconsistent after scale-out")
	}
	// And training continues from the same iteration counter.
	end := f.Iteration() + 10
	stepTo(t, f, end)
	if !f.ReplicasConsistent() {
		t.Fatal("replicas diverged after post-scale-out training")
	}
	if f.NumWorkers() != 4 || f.Iteration() != end {
		t.Fatalf("workers %d, iteration %d; want 4, %d", f.NumWorkers(), f.Iteration(), end)
	}
}

func TestLiveScaleOutValidation(t *testing.T) {
	f := liveFleet(t, 2, 32)
	if err := f.RequestScaleOut(0); err == nil {
		t.Fatal("zero scale-out accepted")
	}
	if err := f.RequestScaleOut(3); err == nil {
		t.Fatal("indivisible worker count accepted") // 32 % 5 != 0
	}
}

func TestLiveScaleIn(t *testing.T) {
	f := liveFleet(t, 4, 32)
	stepTo(t, f, 5)
	if err := f.RequestScaleIn(2); err != nil {
		t.Fatalf("RequestScaleIn: %v", err)
	}
	stepUntilWorkers(t, f, 2)
	if !f.ReplicasConsistent() {
		t.Fatal("replicas inconsistent after scale-in")
	}
	stepTo(t, f, 12)
	if err := f.RequestScaleIn(5); err == nil {
		t.Fatal("removing more workers than exist accepted")
	}
	if err := f.RequestScaleIn(0); err == nil {
		t.Fatal("zero scale-in accepted")
	}
}

func TestLiveElasticityMatchesStaticTraining(t *testing.T) {
	// The headline correctness property: a fleet that scales 2 -> 4 -> 2
	// workers mid-training computes numerically similar results to a static
	// one, because gradients are averaged over the same total batch drawn
	// from the same serial cursor. (Floating-point summation order differs
	// across group sizes, so we compare losses loosely.) Admission lands a
	// variable number of steps after each request, so every phase is
	// measured from the iteration the previous one actually ended at, and
	// both fleets are compared at the same final iteration.
	static := liveFleet(t, 2, 32)
	elastic := liveFleet(t, 2, 32)
	stepTo(t, elastic, 10)
	if err := elastic.RequestScaleOut(2); err != nil {
		t.Fatalf("RequestScaleOut: %v", err)
	}
	stepUntilWorkers(t, elastic, 4)
	stepTo(t, elastic, elastic.Iteration()+10)
	if err := elastic.RequestScaleIn(2); err != nil {
		t.Fatalf("RequestScaleIn: %v", err)
	}
	stepUntilWorkers(t, elastic, 2)
	end := max(30, elastic.Iteration()+10)
	elasticLoss := stepTo(t, elastic, end)
	staticLoss := stepTo(t, static, end)
	ratio := elasticLoss / staticLoss
	if ratio > 1.5 || ratio < 0.6 {
		t.Fatalf("elastic loss %v too far from static loss %v", elasticLoss, staticLoss)
	}
}

func TestLiveSetTotalBatchProgressive(t *testing.T) {
	f := liveFleet(t, 2, 16)
	stepTo(t, f, 5)
	lr0 := f.LR()
	if err := f.SetTotalBatch(32, 10, true); err != nil {
		t.Fatalf("SetTotalBatch: %v", err)
	}
	if f.TotalBatch() != 32 {
		t.Fatalf("TBS = %d", f.TotalBatch())
	}
	// The ramp starts at the current LR and reaches lr0*k (k=2) after 10
	// iterations, linearly in between (Equation 3).
	want, err := scaling.NewLRSchedule(lr0, 2*lr0, 5, 10)
	if err != nil {
		t.Fatal(err)
	}
	for _, it := range []int{5, 10, 15, 17} {
		stepTo(t, f, it)
		if got := f.LR(); got != want.At(it) {
			t.Fatalf("iteration %d: LR %v, want %v", it, got, want.At(it))
		}
	}
	if f.LR() != 2*lr0 {
		t.Fatalf("LR after ramp = %v, want %v", f.LR(), 2*lr0)
	}
	if err := f.SetTotalBatch(33, 10, true); err == nil {
		t.Fatal("indivisible TBS accepted")
	}
}

func TestLiveSetTotalBatchImmediate(t *testing.T) {
	f := liveFleet(t, 2, 16)
	lr0 := f.LR()
	if err := f.SetTotalBatch(64, 100, false); err != nil {
		t.Fatalf("SetTotalBatch: %v", err)
	}
	// Immediate mode: LR jumps to 4x at once.
	if got := f.LR(); got != 4*lr0 {
		t.Fatalf("immediate LR = %v, want %v", got, 4*lr0)
	}
}
