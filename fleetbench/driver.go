package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"time"

	"github.com/elan-sys/elan/internal/checkpoint"
	"github.com/elan-sys/elan/internal/clock"
	"github.com/elan-sys/elan/internal/data"
	"github.com/elan-sys/elan/internal/store"
	"github.com/elan-sys/elan/internal/telemetry"
	"github.com/elan-sys/elan/internal/worker"
)

// Training hyperparameters shared by every workload.
const (
	datasetSamples = 8192
	evalSamples    = 64
	features       = 64
	classes        = 16
	learningRate   = 0.05
	momentum       = 0.9
	// referenceSteps is the length of the fixed-step training segment whose
	// final loss must be bit-identical across fresh fleets.
	referenceSteps = 4
	// timedGap and probeGap are the plain Steps between scripted operations
	// in the timed phase and in the probes.
	timedGap = 3
	probeGap = 1
	// applyTimeout bounds how long a requested adjustment may take to be
	// applied before the benchmark declares it lost.
	applyTimeout = 10 * time.Second
)

// Operation names under which driven-call durations are collected.
const (
	opSetup           = "setup"
	opStep            = "step" // a Step that applied no adjustment
	opScaleOutStep    = "scale_out_step"
	opScaleOutLatency = "scale_out_latency"
	opScaleInStep     = "scale_in_step"
	opSweepStep       = "sweep_step"
	opRejoin          = "rejoin"
	opSave            = "ckpt_save"
	opAMRecovery      = "am_recovery"
	opColdRestore     = "cold_restore"
)

// errAborted marks a phase stopped by a failed driven call; the failure
// itself is already recorded on the driver.
var errAborted = errors.New("fleetbench: phase aborted")

// driver owns one live fleet and drives it through a workload's script,
// timing every call it makes into the runtime.
type driver struct {
	sp   *spec
	clk  clock.Clock
	seed int64
	ds   *data.Dataset
	eval *data.Dataset

	fleet   *worker.Fleet
	ckpt    *checkpoint.DeltaStore
	workers int // active workers after the last driven call
	batch   int // current total batch
	// nextAgent mirrors the fleet's agent naming (agent-0, agent-1, ...),
	// so the driver can name the newest agent for CrashWorker.
	nextAgent int

	// Telemetry for the traced run; nil when untraced.
	rec *telemetry.Recorder
	reg *telemetry.Registry
	tr  telemetry.Tracer // rec, or telemetry.Nop{} when untraced

	// timed is true inside a timed phase: only then are plain Step
	// durations and trained samples collected.
	timed bool
	// gapSteps is the number of plain Steps between scripted operations.
	gapSteps int
	trained  int64
	obs      map[string][]float64 // op → durations in ms
	saves    []checkpoint.SaveStats
	warm     []checkpoint.RestoreStats
	cold     []checkpoint.RestoreStats
	// lg folds the recorder's spans in traced runs; nil otherwise.
	lg *ledger

	attempted int
	failed    int
	problems  []string
}

func newDriver(sp *spec, seed int64) *driver {
	return &driver{
		sp:   sp,
		clk:  clock.Wall{},
		seed: seed,
		tr:   telemetry.Nop{},
		ckpt: checkpoint.NewDeltaStore(checkpoint.DeltaConfig{}),
		obs:  map[string][]float64{},

		gapSteps: probeGap,
	}
}

// problem records a failed correctness check.
func (d *driver) problem(format string, args ...any) {
	if len(d.problems) < 20 {
		d.problems = append(d.problems, fmt.Sprintf(format, args...))
	}
}

// called counts one driven call; a non-nil err is recorded as a failure and
// returned as errAborted so the phase stops.
func (d *driver) called(op string, err error) error {
	d.attempted++
	if err == nil {
		return nil
	}
	d.failed++
	d.problem("%s: %v", op, err)
	return errAborted
}

func (d *driver) record(op string, dt time.Duration) {
	d.obs[op] = append(d.obs[op], float64(dt)/float64(time.Millisecond))
}

// genData generates the training set and the small evaluation set used to
// compare replica states bit for bit.
func genData(seed int64) (*data.Dataset, *data.Dataset, error) {
	ds, err := data.GenGaussianMixture(seed, datasetSamples, features, classes)
	if err != nil {
		return nil, nil, err
	}
	eval, err := data.GenGaussianMixture(seed^0x5eed, evalSamples, features, classes)
	return ds, eval, err
}

// newFleet builds and starts a fleet of the workload's model on the
// driver's dataset. Traced runs wire the recorder, the registry and an
// instrumented store into it.
func (d *driver) newFleet(workers, batch int) (*worker.Fleet, error) {
	st := store.New()
	cfg := worker.FleetConfig{
		Dataset:     d.ds,
		LayerSizes:  d.sp.sizes,
		Workers:     workers,
		TotalBatch:  batch,
		LR:          learningRate,
		Momentum:    momentum,
		Seed:        d.seed,
		Store:       st,
		Checkpoints: d.ckpt,
		BucketElems: d.sp.bucketElems,
	}
	if d.rec != nil {
		cfg.Tracer = d.rec
		cfg.Metrics = d.reg
		st.Instrument(d.clk, d.reg)
	}
	f, err := worker.NewFleet(cfg)
	if err != nil {
		return nil, err
	}
	if err := f.Start(context.Background()); err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

// install makes f the driven fleet, closing the previous one.
func (d *driver) install(f *worker.Fleet, workers, batch int) {
	if d.fleet != nil && d.fleet != f {
		d.fleet.Close()
	}
	d.fleet, d.workers, d.batch, d.nextAgent = f, workers, batch, workers
}

func (d *driver) close() {
	if d.fleet != nil {
		d.fleet.Close()
		d.fleet = nil
	}
}

// step drives one Fleet.Step inside a bench.step span and reports its
// duration and whether it changed the worker count (applied an adjustment
// or swept a crashed agent).
func (d *driver) step() (time.Duration, bool, error) {
	span := d.tr.StartSpan("bench.step")
	t0 := d.clk.Now()
	loss, err := d.fleet.Step()
	dt := d.clk.Since(t0)
	span.End()
	if err := d.called("Step", err); err != nil {
		return dt, false, err
	}
	if math.IsNaN(loss) || math.IsInf(loss, 0) {
		d.problem("non-finite loss %v at iteration %d", loss, d.fleet.Iteration())
	}
	if d.timed {
		d.trained += int64(d.batch)
	}
	n := d.fleet.NumWorkers()
	changed := n != d.workers
	d.workers = n
	return dt, changed, nil
}

// steps runs n Steps that are expected to apply nothing.
func (d *driver) steps(n int) error {
	for i := 0; i < n; i++ {
		dt, changed, err := d.step()
		if err != nil {
			return err
		}
		if changed {
			d.problem("unrequested worker-count change to %d", d.workers)
		} else if d.timed {
			d.record(opStep, dt)
		}
	}
	return nil
}

// timedCall runs one driven call inside a bench span and returns its
// duration.
func (d *driver) timedCall(op string, fn func() error) (time.Duration, error) {
	span := d.tr.StartSpan("bench." + op)
	t0 := d.clk.Now()
	err := fn()
	dt := d.clk.Since(t0)
	span.End()
	return dt, d.called(op, err)
}

func (d *driver) checkConsistent(after string) {
	if !d.fleet.ReplicasConsistent() {
		d.problem("replicas diverged after %s", after)
	}
}

// stepUntil Steps until the fleet has want workers, recording the Step that
// got there under op and the Steps before it as plain steps.
func (d *driver) stepUntil(want int, op string) error {
	for t0 := d.clk.Now(); d.clk.Since(t0) < applyTimeout; {
		dt, changed, err := d.step()
		if err != nil {
			return err
		}
		switch {
		case d.workers == want:
			d.record(op, dt)
			return nil
		case changed:
			d.problem("%s: worker count moved to %d, want %d", op, d.workers, want)
			return errAborted
		case d.timed:
			d.record(opStep, dt)
		}
	}
	d.problem("%s: not applied within %v", op, applyTimeout)
	return errAborted
}

// scaleOut requests one more worker and Steps until it is admitted.
func (d *driver) scaleOut() error {
	want := d.workers + 1
	t0 := d.clk.Now()
	if _, err := d.timedCall("RequestScaleOut", func() error { return d.fleet.RequestScaleOut(1) }); err != nil {
		return err
	}
	d.nextAgent++
	if err := d.stepUntil(want, opScaleOutStep); err != nil {
		return err
	}
	d.record(opScaleOutLatency, d.clk.Since(t0))
	d.checkConsistent("scale-out")
	return nil
}

// scaleIn requests the removal of the newest worker and Steps until it has
// left.
func (d *driver) scaleIn() error {
	want := d.workers - 1
	if _, err := d.timedCall("RequestScaleIn", func() error { return d.fleet.RequestScaleIn(1) }); err != nil {
		return err
	}
	if err := d.stepUntil(want, opScaleInStep); err != nil {
		return err
	}
	d.checkConsistent("scale-in")
	return nil
}

// crashRejoin crashes the newest agent, lets one Step sweep it out, and
// restarts it under its old name.
func (d *driver) crashRejoin() error {
	name := fmt.Sprintf("agent-%d", d.nextAgent-1)
	if _, err := d.timedCall("CrashWorker", func() error { return d.fleet.CrashWorker(name) }); err != nil {
		return err
	}
	if err := d.stepUntil(d.workers-1, opSweepStep); err != nil {
		return err
	}
	dt, err := d.timedCall("RejoinWorker", func() error { return d.fleet.RejoinWorker(name) })
	if err != nil {
		return err
	}
	d.record(opRejoin, dt)
	d.workers = d.fleet.NumWorkers()
	d.checkConsistent("rejoin")
	return nil
}

// batchChange doubles the total batch with a progressive learning-rate ramp,
// trains through the ramp, and returns to the original batch.
func (d *driver) batchChange() error {
	const ramp = 4
	base := d.batch
	if _, err := d.timedCall("SetTotalBatch", func() error { return d.fleet.SetTotalBatch(2*base, ramp, true) }); err != nil {
		return err
	}
	d.batch = 2 * base
	if err := d.steps(ramp + 1); err != nil {
		return err
	}
	if _, err := d.timedCall("SetTotalBatch", func() error { return d.fleet.SetTotalBatch(base, 0, false) }); err != nil {
		return err
	}
	d.batch = base
	return nil
}

// churnCycle is elastic-churn's loop, starting and ending at one worker:
// scale-out 1→2, crash and rejoin of the newest agent, a batch change and
// its return, scale-in 2→1, with a few plain Steps between operations.
func churnCycle(d *driver) error {
	if d.workers != 1 {
		d.problem("churn cycle starts at %d workers, want 1", d.workers)
		return errAborted
	}
	for _, op := range []func() error{d.scaleOut, d.crashRejoin, d.batchChange, d.scaleIn} {
		if err := d.steps(d.gapSteps); err != nil {
			return err
		}
		if err := op(); err != nil {
			return err
		}
	}
	return nil
}

// steadyCycle is steady-wide's loop: plain Steps only.
func steadyCycle(d *driver) error { return d.steps(1) }

// evalLoss is the lead replica's loss on the evaluation set: equal values
// mean equal parameters for the purposes of the restore checks.
func (d *driver) evalLoss() (float64, error) {
	loss, _, err := d.fleet.Evaluate(d.eval)
	return loss, d.called("Evaluate", err)
}

// save checkpoints the fleet and records the save.
func (d *driver) save() error {
	var st checkpoint.SaveStats
	dt, err := d.timedCall("SaveCheckpoint", func() error {
		var err error
		st, err = d.fleet.SaveCheckpoint()
		return err
	})
	if err != nil {
		return err
	}
	d.record(opSave, dt)
	d.saves = append(d.saves, st)
	d.checkConsistent("save")
	return nil
}

// ckptCycle is ckpt-recover's loop: three periodic saves, then an AM crash
// with one Step trained through the outage, AM recovery and a warm restore
// that must roll the replicas back to the last save exactly.
func ckptCycle(d *driver) error {
	const savesPerRecovery = 3
	for i := 0; i < savesPerRecovery; i++ {
		if err := d.steps(d.gapSteps); err != nil {
			return err
		}
		if err := d.save(); err != nil {
			return err
		}
	}
	want, err := d.evalLoss()
	if err != nil {
		return err
	}
	if _, err := d.timedCall("CrashAM", func() error { _, err := d.fleet.CrashAM(); return err }); err != nil {
		return err
	}
	if err := d.steps(1); err != nil {
		return err
	}
	var rs checkpoint.RestoreStats
	dt, err := d.timedCall("RecoverAM+RestoreCheckpoint", func() error {
		if err := d.fleet.RecoverAM(); err != nil {
			return err
		}
		var err error
		rs, err = d.fleet.RestoreCheckpoint()
		return err
	})
	if err != nil {
		return err
	}
	d.record(opAMRecovery, dt)
	d.warm = append(d.warm, rs)
	d.checkConsistent("warm restore")
	return d.checkRestored("warm restore", want)
}

func (d *driver) checkRestored(what string, want float64) error {
	got, err := d.evalLoss()
	if err != nil {
		return err
	}
	if math.Float64bits(got) != math.Float64bits(want) {
		d.problem("%s: evaluation loss %v, want %v as saved", what, got, want)
	}
	return nil
}

// coldRestart is the Shutdown-&-Restart path: train, save, close the fleet,
// build a new one on the same checkpoint store and restore the full chain.
func coldRestart(d *driver) error {
	if err := d.steps(d.gapSteps); err != nil {
		return err
	}
	if err := d.save(); err != nil {
		return err
	}
	want, err := d.evalLoss()
	if err != nil {
		return err
	}
	workers, batch := d.workers, d.batch
	var (
		f  *worker.Fleet
		rs checkpoint.RestoreStats
	)
	dt, err := d.timedCall("ColdRestart", func() error {
		d.close()
		var err error
		if f, err = d.newFleet(workers, batch); err != nil {
			return err
		}
		rs, err = f.RestoreCheckpoint()
		return err
	})
	if f != nil {
		d.install(f, workers, batch)
	}
	if err != nil {
		return err
	}
	d.record(opColdRestore, dt)
	d.cold = append(d.cold, rs)
	d.checkConsistent("cold restore")
	return d.checkRestored("cold restore", want)
}

// scalePair is one scale-in and one scale-out, in the order the current
// worker count allows.
func scalePair(d *driver) error {
	if d.workers > 1 {
		if err := d.scaleIn(); err != nil {
			return err
		}
		return d.scaleOut()
	}
	if err := d.scaleOut(); err != nil {
		return err
	}
	return d.scaleIn()
}

// timedPhase repeats cycle for dur and returns the phase's wall time and
// trained samples.
func (d *driver) timedPhase(dur time.Duration, cycle func(*driver) error) (time.Duration, int64, error) {
	d.timed, d.gapSteps = true, timedGap
	defer func() { d.timed, d.gapSteps = false, probeGap }()
	d.trained = 0
	t0 := d.clk.Now()
	for d.clk.Since(t0) < dur {
		if err := cycle(d); err != nil {
			return d.clk.Since(t0), d.trained, err
		}
		d.foldSpans(false)
	}
	d.foldSpans(true)
	return d.clk.Since(t0), d.trained, nil
}

// segments is how many slices a measured run's timed phase and probes are
// cut into and interleaved, so both sample the host over the whole run.
const segments = 10

// measure runs cycle for dur in total, interleaved with the probes: each
// timed segment is followed by its share of every probe's repetitions, a
// collection and a warm-up Step, none of which count toward the timed
// phase. It returns the timed phase's wall time and trained samples.
func (d *driver) measure(dur time.Duration, cycle func(*driver) error) (time.Duration, int64, error) {
	var (
		wall    time.Duration
		trained int64
	)
	for seg := 0; seg < segments; seg++ {
		w, n, err := d.timedPhase(dur/segments, cycle)
		wall, trained = wall+w, trained+n
		if err != nil {
			return wall, trained, err
		}
		if err := d.probeSlice(seg); err != nil {
			return wall, trained, err
		}
	}
	return wall, trained, nil
}

// probeSlice runs segment seg's share of the workload's probes: the
// operations its timed loop does not exercise. Each repetition starts from
// a collected heap, so the probes' own garbage is not charged to whichever
// sample happens to trigger a collection.
func (d *driver) probeSlice(seg int) error {
	for _, p := range d.sp.probes {
		for i := p.reps * seg / segments; i < p.reps*(seg+1)/segments; i++ {
			runtime.GC()
			if err := p.run(d); err != nil {
				return err
			}
			d.foldSpans(false)
		}
	}
	runtime.GC()
	err := d.steps(d.gapSteps)
	d.foldSpans(true)
	return err
}

// foldSpans folds the recorded spans into the ledger when the recorder is
// full or force is set; Step-level rows only inside the timed phase.
func (d *driver) foldSpans(force bool) {
	if d.lg != nil && (force || d.rec.Len() >= foldBatch) {
		d.lg.fold(d.rec, d.timed)
	}
}
