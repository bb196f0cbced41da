package main

import (
	"math"
	"runtime"
	"time"

	"github.com/elan-sys/elan/internal/checkpoint"
	"github.com/elan-sys/elan/internal/telemetry"
	"github.com/elan-sys/elan/internal/worker"
)

// spec is one scripted workload: the model and batch it trains, the loop
// its timed phase repeats, and the probes run between segments of that
// loop to measure set-up and the operations the loop does not exercise, so
// every workload reports every metric. Probe repetitions are sized to give
// each median at least a dozen samples per run for a few seconds of work.
type spec struct {
	sizes       []int
	workers     int // workers the fleet starts with
	batch       int
	bucketElems int
	cycle       func(*driver) error
	probes      []probe
}

type probe struct {
	reps int
	run  func(*driver) error
}

var (
	// wideMLP has 304,144 parameters: kernels, bucketing and the allreduce
	// dominate its steps.
	wideMLP = []int{features, 512, 512, classes}
	// smallMLP has 1,584 parameters: its steps are short enough that the
	// control plane dominates.
	smallMLP = []int{features, 16, 16, classes}
)

// wideBuckets caps ddp buckets so the wide model reduces in two buckets,
// the first overlapping the backward pass of the first layer.
const wideBuckets = 65536

var specs = map[string]*spec{
	"steady-wide": {
		sizes: wideMLP, workers: 2, batch: 64, bucketElems: wideBuckets,
		cycle: steadyCycle,
		probes: []probe{
			{reps: 40, run: setupProbe},
			{reps: 12, run: ckptCycle},
			{reps: 24, run: coldRestart},
			{reps: 30, run: scalePair},
			{reps: 30, run: (*driver).crashRejoin},
		},
	},
	"elastic-churn": {
		sizes: smallMLP, workers: 1, batch: 32,
		cycle: churnCycle,
		probes: []probe{
			{reps: 40, run: setupProbe},
			{reps: 200, run: ckptCycle},
			{reps: 200, run: coldRestart},
		},
	},
	"ckpt-recover": {
		sizes: wideMLP, workers: 2, batch: 16, bucketElems: wideBuckets,
		cycle: ckptCycle,
		probes: []probe{
			{reps: 40, run: setupProbe},
			{reps: 24, run: coldRestart},
			{reps: 30, run: scalePair},
			{reps: 30, run: (*driver).crashRejoin},
		},
	},
}

// freshFleet is one timed set-up: dataset generation, NewFleet and Start.
func (d *driver) freshFleet() (*worker.Fleet, error) {
	t0 := d.clk.Now()
	ds, eval, err := genData(d.seed)
	if err := d.called("GenData", err); err != nil {
		return nil, err
	}
	d.ds, d.eval = ds, eval
	f, err := d.newFleet(d.sp.workers, d.sp.batch)
	if err := d.called("NewFleet", err); err != nil {
		return nil, err
	}
	d.record(opSetup, d.clk.Since(t0))
	return f, nil
}

// setup sets up two fresh fleets, trains each for referenceSteps and checks
// that they reach the same loss bit for bit. The second stays installed; it
// returns the reference loss.
func (d *driver) setup() (float64, error) {
	ref := math.NaN()
	for i := 0; i < 2; i++ {
		d.close()
		runtime.GC()
		f, err := d.freshFleet()
		if err != nil {
			return ref, err
		}
		d.install(f, d.sp.workers, d.sp.batch)
		loss, err := d.reference()
		if err != nil {
			return ref, err
		}
		if i == 0 {
			ref = loss
		} else if math.Float64bits(loss) != math.Float64bits(ref) {
			d.problem("reference loss %v on the second set-up, want %v", loss, ref)
		}
	}
	return ref, nil
}

// setupProbe times one more set-up and discards its fleet.
func setupProbe(d *driver) error {
	f, err := d.freshFleet()
	if err != nil {
		return err
	}
	f.Close()
	return nil
}

// reference trains the freshly installed fleet for referenceSteps and
// returns the final loss.
func (d *driver) reference() (float64, error) {
	var loss float64
	for i := 0; i < referenceSteps; i++ {
		var err error
		loss, err = d.fleet.Step()
		if err := d.called("Step", err); err != nil {
			return 0, err
		}
	}
	d.checkConsistent("reference steps")
	return loss, nil
}

// runUntraced measures the end-to-end metrics: set-up, then the timed
// phase for dur interleaved with the probes.
func runUntraced(d *driver, dur time.Duration) (map[string]metric, float64) {
	m := map[string]metric{}
	ref, err := d.setup()
	defer d.close()
	if err != nil {
		return m, ref
	}
	wall, trained, err := d.measure(dur, d.sp.cycle)
	m["train_samples_per_s"] = metric{float64(trained) / wall.Seconds(), "1/s"}
	if err != nil {
		return m, ref
	}
	m["setup_s"] = metric{quantile(d.obs[opSetup], 0.5) / 1000, "s"}
	steps := d.obs[opStep]
	m["step_p50_ms"] = metric{quantile(steps, 0.5), "ms"}
	m["step_p90_ms"] = metric{quantile(steps, 0.9), "ms"}
	for _, op := range []string{opScaleOutStep, opScaleOutLatency, opScaleInStep, opRejoin, opSave, opAMRecovery, opColdRestore} {
		m[op+"_ms"] = metric{quantile(d.obs[op], 0.5), "ms"}
	}
	return m, ref
}

// Shares of the timed run a traced run spends in each phase.
const (
	untracedShare = 0.3
	tracedShare   = 0.4
	scalingShare  = 0.15 // each of the two scaling-baseline phases
)

// runTraced measures the per-layer metrics: the timed loop untraced (the
// overhead baseline), single- and two-worker steady phases (the scaling
// baseline), then the timed loop interleaved with the probes on a fleet
// wired to a span recorder and a metrics registry, folding the spans into
// the per-layer ledger.
func runTraced(d *driver, dur time.Duration) (map[string]metric, float64) {
	m := map[string]metric{}
	ref, err := d.setup()
	defer d.close()
	if err != nil {
		return m, ref
	}
	share := func(f float64) time.Duration { return time.Duration(f * float64(dur)) }

	// Untraced baseline of the same loop.
	if _, _, err := d.timedPhase(share(untracedShare), d.sp.cycle); err != nil {
		return m, ref
	}
	untraced := d.obs[opStep]

	// Scaling baseline: steady training at one and at two workers.
	rate := func(workers int) float64 {
		f, err := d.newFleet(workers, d.sp.batch)
		if d.called("NewFleet", err) != nil {
			return 0
		}
		d.install(f, workers, d.sp.batch)
		wall, trained, err := d.timedPhase(share(scalingShare), steadyCycle)
		if err != nil {
			return 0
		}
		return float64(trained) / wall.Seconds()
	}
	one, two := rate(1), rate(2)

	// Traced run on a fresh, instrumented fleet.
	d.rec = telemetry.NewRecorder(d.clk, 0)
	d.reg = telemetry.NewRegistry()
	d.tr = d.rec
	d.ckpt = checkpoint.NewDeltaStore(checkpoint.DeltaConfig{Metrics: d.reg})
	d.obs = map[string][]float64{}
	d.saves, d.warm, d.cold = nil, nil, nil
	f, err := d.newFleet(d.sp.workers, d.sp.batch)
	if d.called("NewFleet", err) != nil {
		return m, ref
	}
	d.install(f, d.sp.workers, d.sp.batch)
	loss, err := d.reference()
	if err != nil {
		return m, ref
	}
	if math.Float64bits(loss) != math.Float64bits(ref) {
		d.problem("traced reference loss %v, want untraced %v", loss, ref)
	}
	d.rec.Reset()

	d.lg = newLedger()
	before := snapshotCounters(d.reg)
	if _, _, err := d.measure(share(tracedShare), d.sp.cycle); err != nil {
		return m, ref
	}
	all := snapshotCounters(d.reg).minus(before)

	d.lg.report(m, all)
	if d.lg.steps == 0 {
		d.problem("no traced Steps reached the ledger")
	}
	if pct := d.lg.unattributedPct(); math.Abs(pct) > ledgerTolerancePct {
		d.problem("ledger open: unattributed %.2f%% of Step wall time exceeds %v%%", pct, ledgerTolerancePct)
	}
	traced := d.obs[opStep]
	m["telemetry.overhead_pct"] = metric{(quantile(traced, 0.5)/quantile(untraced, 0.5) - 1) * 100, "%"}
	m["fleet.step_p99_ms"] = metric{quantile(untraced, 0.99), "ms"}
	m["scaling.efficiency"] = metric{two / (2 * one), "ratio"}
	checkpointMetrics(m, d.saves, d.warm, d.cold)
	d.crossCheckCheckpoints(all)
	return m, ref
}

// crossCheckCheckpoints compares the delta store's registry counters with
// the SaveStats and RestoreStats its calls returned.
func (d *driver) crossCheckCheckpoints(c counters) {
	var bytes, chunks float64
	for _, s := range d.saves {
		bytes += float64(s.BytesWritten)
	}
	for _, r := range append(append([]checkpoint.RestoreStats(nil), d.warm...), d.cold...) {
		chunks += float64(r.ChunksReplayed)
	}
	if c["checkpoint_bytes_written_total"] != bytes || c["checkpoint_restore_chunks_total"] != chunks {
		d.problem("checkpoint counters (%v bytes, %v chunks) disagree with call stats (%v, %v)",
			c["checkpoint_bytes_written_total"], c["checkpoint_restore_chunks_total"], bytes, chunks)
	}
}

// checkpointMetrics reports what the delta store did per save and restore.
func checkpointMetrics(m map[string]metric, saves []checkpoint.SaveStats, warm, cold []checkpoint.RestoreStats) {
	var bytes, dirty, total float64
	for _, s := range saves {
		bytes += float64(s.BytesWritten)
		dirty += float64(s.ChunksDirty)
		total += float64(s.ChunksTotal)
	}
	m["checkpoint.bytes_per_save"] = metric{safeDiv(bytes, float64(len(saves))), "B"}
	m["checkpoint.dirty_ratio"] = metric{safeDiv(dirty, total), "ratio"}
	chunks := func(rs []checkpoint.RestoreStats) float64 {
		var n float64
		for _, r := range rs {
			n += float64(r.ChunksReplayed)
		}
		return safeDiv(n, float64(len(rs)))
	}
	m["checkpoint.restore_chunks_warm"] = metric{chunks(warm), "count"}
	m["checkpoint.restore_chunks_cold"] = metric{chunks(cold), "count"}
}
