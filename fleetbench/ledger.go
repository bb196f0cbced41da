package main

import (
	"sort"
	"strconv"
	"time"

	"github.com/elan-sys/elan/internal/coord"
	"github.com/elan-sys/elan/internal/telemetry"
)

// ledgerTolerancePct is how far, as a share of the benchmark's Step wall
// time, the per-layer self times may fall short of (or exceed) that wall
// time before the traced run fails its correctness check.
const ledgerTolerancePct = 5.0

// foldBatch is how many recorded spans trigger a fold between cycles,
// keeping the recorder well under its span cap.
const foldBatch = 4096

// Ledger rows: the self time of each layer along a Step's critical path.
// Their sum plus unattributed is the benchmark's Step wall time.
const (
	rowDispatch  = "worker.dispatch_us_per_step"
	rowTransport = "transport.coord_call_self_us_per_step"
	rowCoord     = "coord.coordinate_self_us_per_step"
	rowApply     = "worker.apply_adjustment_self_us_per_step"
	rowInstall   = "worker.install_state_us_per_step"
	rowRank      = "worker.rank_self_us_per_step"
	rowForward   = "nn.forward_us_per_step"
	rowBackward  = "ddp.backward_self_us_per_step"
	rowExposed   = "ddp.exposed_comm_us_per_step"
	rowOptimize  = "nn.optimize_us_per_step"
)

var ledgerRows = []string{rowDispatch, rowTransport, rowCoord, rowApply, rowInstall,
	rowRank, rowForward, rowBackward, rowExposed, rowOptimize}

// Op-level spans whose mean duration is reported, keyed by span name (and,
// for transport calls, the message kind).
const (
	opsApply       = "worker.apply_adjustment"
	opsInstall     = "worker.install_state"
	opsReport      = "worker.report_ready"
	opsAdjustReq   = "coord.adjust_request"
	opsCoordReport = "coord.report_ready"
	opsCoordRTT    = "transport.call:" + coord.KindCoordinate
)

// ledger folds recorded spans into per-layer self time. Steps are matched
// to the benchmark's own bench.step spans; within each Step the critical
// path is the coordinate call, any adjustment applied, and the slowest
// rank's step, whose children split into forward, backward, the allreduce
// time not hidden behind them, and optimize.
type ledger struct {
	steps        int
	wall         time.Duration
	unattributed time.Duration
	rows         map[string]time.Duration
	stall        time.Duration
	allreduce    time.Duration
	elems        int64
	buckets      int
	ops          map[string]*opStat
}

type opStat struct {
	n     int
	total time.Duration
}

func newLedger() *ledger {
	return &ledger{rows: map[string]time.Duration{}, ops: map[string]*opStat{}}
}

// iv is a span interval as offsets from a Step's start.
type iv struct{ lo, hi time.Duration }

func ivOf(s *telemetry.SpanRecord, base time.Time) iv {
	return iv{s.Start.Sub(base), s.End.Sub(base)}
}

func (a iv) clip(b iv) iv {
	lo, hi := max(a.lo, b.lo), min(a.hi, b.hi)
	return iv{lo, max(lo, hi)}
}

func (a iv) len() time.Duration { return a.hi - a.lo }

// unionLen is the length of the union of ivs.
func unionLen(ivs []iv) time.Duration {
	s := append([]iv(nil), ivs...)
	sort.Slice(s, func(i, j int) bool { return s[i].lo < s[j].lo })
	var total time.Duration
	var cur iv
	for i, x := range s {
		switch {
		case i == 0:
			cur = x
		case x.lo <= cur.hi:
			cur.hi = max(cur.hi, x.hi)
		default:
			total += cur.len()
			cur = x
		}
	}
	if len(s) > 0 {
		total += cur.len()
	}
	return total
}

// fold drains the recorder. Op-level span durations are always collected;
// stepLevel also folds every Step into the ledger rows. Callers fold only
// between driven calls, so each Step's spans are complete.
func (l *ledger) fold(rec *telemetry.Recorder, stepLevel bool) {
	spans := rec.Snapshot()
	rec.Reset()
	children := map[uint64][]*telemetry.SpanRecord{}
	var benches, steps, applies []*telemetry.SpanRecord
	for i := range spans {
		s := &spans[i]
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
		key := s.Name
		switch s.Name {
		case "bench.step":
			benches = append(benches, s)
		case "worker.step":
			steps = append(steps, s)
		case opsApply:
			applies = append(applies, s)
		case "transport.call":
			kind, _ := s.Attr("kind")
			key += ":" + kind
		}
		switch key {
		case opsApply, opsInstall, opsReport, opsAdjustReq, opsCoordReport, opsCoordRTT:
			st := l.ops[key]
			if st == nil {
				st = &opStat{}
				l.ops[key] = st
			}
			st.n++
			st.total += s.Duration()
		}
	}
	if !stepLevel {
		return
	}
	// Steps are serial, so bench.step and worker.step spans pair up in start
	// order; a bench.step without a worker.step inside it stays unattributed.
	j, a := 0, 0
	for _, b := range benches {
		for j < len(steps) && steps[j].Start.Before(b.Start) {
			j++
		}
		l.steps++
		l.wall += b.Duration()
		if j == len(steps) || steps[j].End.After(b.End) {
			l.unattributed += b.Duration()
			continue
		}
		s := steps[j]
		j++
		for a < len(applies) && applies[a].Start.Before(s.Start) {
			a++
		}
		var inStep []*telemetry.SpanRecord
		for a < len(applies) && !applies[a].Start.After(s.End) {
			inStep = append(inStep, applies[a])
			a++
		}
		l.unattributed += b.Duration() - l.foldStep(b.Start, s, inStep, children)
	}
}

// foldStep adds one Step's critical-path self times to the rows and returns
// their sum.
func (l *ledger) foldStep(base time.Time, s *telemetry.SpanRecord, applies []*telemetry.SpanRecord,
	children map[uint64][]*telemetry.SpanRecord) time.Duration {
	rows := map[string]time.Duration{}
	sI := ivOf(s, base)
	var critical []iv
	var ranks []*telemetry.SpanRecord
	for _, c := range children[s.ID] {
		switch c.Name {
		case "transport.call":
			cI := ivOf(c, base).clip(sI)
			var coI iv
			for _, h := range children[c.ID] {
				hI := ivOf(h, base).clip(cI)
				for _, co := range children[h.ID] {
					if co.Name == "coord.coordinate" {
						coI = ivOf(co, base).clip(hI)
					}
				}
			}
			rows[rowTransport] += cI.len() - coI.len()
			rows[rowCoord] += coI.len()
			critical = append(critical, cI)
		case "worker.rank_step":
			ranks = append(ranks, c)
		}
	}
	for _, ap := range applies {
		aI := ivOf(ap, base).clip(sI)
		var inst []iv
		for _, c := range children[ap.ID] {
			if c.Name == opsInstall {
				inst = append(inst, ivOf(c, base).clip(aI))
			}
		}
		in := unionLen(inst)
		rows[rowInstall] += in
		rows[rowApply] += aI.len() - in
		critical = append(critical, aI)
	}
	if len(ranks) > 0 {
		slowest := ranks[0]
		for _, r := range ranks[1:] {
			if r.End.After(slowest.End) {
				slowest = r
			}
		}
		for _, r := range ranks {
			l.stall += slowest.End.Sub(r.End) / time.Duration(len(ranks))
		}
		rI := ivOf(slowest, base).clip(sI)
		var compute, comm []iv
		for _, c := range children[slowest.ID] {
			cI := ivOf(c, base).clip(rI)
			switch c.Name {
			case "worker.forward":
				rows[rowForward] += cI.len()
			case "ddp.backward":
				rows[rowBackward] += cI.len()
			case "worker.optimize":
				rows[rowOptimize] += cI.len()
			case "collective.allreduce":
				comm = append(comm, cI)
				l.allreduce += c.Duration()
				l.buckets++
				if v, ok := c.Attr("elements"); ok {
					n, _ := strconv.ParseInt(v, 10, 64)
					l.elems += n
				}
				continue
			default:
				continue
			}
			compute = append(compute, cI)
		}
		computed := unionLen(compute)
		covered := unionLen(append(compute, comm...))
		rows[rowExposed] += covered - computed
		rows[rowRank] += rI.len() - covered
		critical = append(critical, rI)
	}
	rows[rowDispatch] += sI.len() - unionLen(critical)
	var sum time.Duration
	for k, v := range rows {
		l.rows[k] += v
		sum += v
	}
	return sum
}

func (l *ledger) unattributedPct() float64 {
	return 100 * safeDiv(float64(l.unattributed), float64(l.wall))
}

func (l *ledger) opMeanUs(key string) float64 {
	st := l.ops[key]
	if st == nil {
		return 0
	}
	return safeDiv(us(st.total), float64(st.n))
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// report writes the per-layer metrics: the ledger over the timed phase's
// Steps, op-level span means and registry counts over the whole traced run.
func (l *ledger) report(m map[string]metric, all counters) {
	perStep := func(d time.Duration) float64 { return safeDiv(us(d), float64(l.steps)) }
	m["ledger.step_wall_us"] = metric{perStep(l.wall), "us"}
	for _, r := range ledgerRows {
		m[r] = metric{perStep(l.rows[r]), "us"}
	}
	m["ledger.unattributed_us_per_step"] = metric{perStep(l.unattributed), "us"}
	m["ledger.unattributed_pct"] = metric{l.unattributedPct(), "%"}
	m["worker.stall_us_per_step"] = metric{perStep(l.stall), "us"}
	m["collective.allreduce_us_per_step"] = metric{perStep(l.allreduce), "us"}
	m["collective.allreduce_elems_per_step"] = metric{safeDiv(float64(l.elems), float64(l.steps)), "count"}
	m["ddp.buckets_per_step"] = metric{safeDiv(float64(l.buckets), float64(l.steps)), "count"}

	m["transport.calls_per_step"] = metric{safeDiv(all["transport_calls_total"], all["worker_steps_total"]), "count"}
	m["transport.call_us"] = metric{1e6 * safeDiv(all["transport_call_seconds.sum"], all["transport_call_seconds.count"]), "us"}

	m["coord.coordinate_rtt_us"] = metric{l.opMeanUs(opsCoordRTT), "us"}
	m["coord.adjust_request_us"] = metric{l.opMeanUs(opsAdjustReq), "us"}
	m["coord.report_ready_us"] = metric{l.opMeanUs(opsCoordReport), "us"}
	m["worker.apply_adjustment_us"] = metric{l.opMeanUs(opsApply), "us"}
	m["worker.install_state_us"] = metric{l.opMeanUs(opsInstall), "us"}
	m["worker.report_ready_us"] = metric{l.opMeanUs(opsReport), "us"}

	m["transport.resends"] = metric{all["transport_resends_total"], "count"}
	m["transport.drops"] = metric{all["transport_drops_total"], "count"}
	storeOps := all["store_gets_total"] + all["store_puts_total"] + all["store_cas_total"] + all["store_deletes_total"]
	actions := all["worker_adjustments_total"] + all["worker_am_recoveries_total"]
	m["store.ops_per_adjustment"] = metric{safeDiv(storeOps, actions), "count"}
	m["store.cas_us"] = metric{1e6 * safeDiv(all["store_cas_seconds.sum"], all["store_cas_seconds.count"]), "us"}
	m["store.cas_failures"] = metric{all["store_cas_failures_total"], "count"}
}

// counters is a snapshot of the registry instruments the report reads;
// histograms contribute their exact count and sum.
type counters map[string]float64

var (
	counterNames = []string{"transport_calls_total", "transport_resends_total", "transport_drops_total",
		"store_gets_total", "store_puts_total", "store_cas_total", "store_deletes_total",
		"store_cas_failures_total", "worker_steps_total", "worker_adjustments_total",
		"worker_am_recoveries_total", "checkpoint_bytes_written_total", "checkpoint_restore_chunks_total"}
	histogramNames = []string{"transport_call_seconds", "store_cas_seconds"}
)

func snapshotCounters(reg *telemetry.Registry) counters {
	c := counters{}
	for _, n := range counterNames {
		c[n] = float64(reg.Counter(n).Value())
	}
	for _, n := range histogramNames {
		s := reg.Histogram(n).Snapshot()
		c[n+".count"] = float64(s.Count)
		c[n+".sum"] = s.Sum
	}
	return c
}

func (c counters) minus(o counters) counters {
	out := counters{}
	for k, v := range c {
		out[k] = v - o[k]
	}
	return out
}
