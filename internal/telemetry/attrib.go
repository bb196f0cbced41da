package telemetry

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"time"

	"github.com/elan-sys/elan/internal/metrics"
)

// Phase classifies where a span's time goes in the step-time attribution:
// the taxonomy the paper's overhead claims are stated in.
type Phase int

const (
	// PhaseOther is unclassified time inside a rank step (container spans,
	// unknown names). It claims nothing in the sweep.
	PhaseOther Phase = iota
	// PhaseCompute is forward/backward/optimizer work on the rank.
	PhaseCompute
	// PhaseComm is collective communication (allreduce and friends).
	PhaseComm
	// PhaseCoord is control-plane time: transport calls, coordinator
	// round-trips, adjustment application, state installation.
	PhaseCoord
)

func (p Phase) String() string {
	switch p {
	case PhaseCompute:
		return "compute"
	case PhaseComm:
		return "comm"
	case PhaseCoord:
		return "coord"
	default:
		return "other"
	}
}

// ClassifySpan maps a span name to its attribution phase. Container spans
// (rank steps, whole-step spans) classify as PhaseOther so only leaf work
// claims time.
func ClassifySpan(name string) Phase {
	switch {
	case strings.HasSuffix(name, ".forward"), strings.HasSuffix(name, ".backward"),
		strings.HasSuffix(name, ".optimize"):
		return PhaseCompute
	case strings.HasPrefix(name, "collective."):
		return PhaseComm
	case strings.HasPrefix(name, "transport."), strings.HasPrefix(name, "coord."),
		name == "worker.apply_adjustment", name == "worker.request_scale_out",
		name == "worker.request_scale_in", name == "worker.install_state",
		name == "worker.report_ready":
		return PhaseCoord
	default:
		return PhaseOther
	}
}

// RankStep is the attribution of one rank's share of one training step: how
// its wall time inside the worker.rank_step span splits into phases. Stall
// is the uncovered remainder — time inside the rank step that no classified
// child span accounts for.
type RankStep struct {
	Iter      int           `json:"iter"`
	Rank      string        `json:"rank"`
	Proc      string        `json:"proc,omitempty"`
	Total     time.Duration `json:"total"`
	Compute   time.Duration `json:"compute"`
	Comm      time.Duration `json:"comm"`
	Coord     time.Duration `json:"coord"`
	Stall     time.Duration `json:"stall"`
	Straggler bool          `json:"straggler,omitempty"`
}

// StepAttribution aggregates all ranks of one step.
type StepAttribution struct {
	Iter       int           `json:"iter"`
	Ranks      int           `json:"ranks"`
	Total      time.Duration `json:"total"`
	Compute    time.Duration `json:"compute"`
	Comm       time.Duration `json:"comm"`
	Coord      time.Duration `json:"coord"`
	Stall      time.Duration `json:"stall"`
	Stragglers []string      `json:"stragglers,omitempty"`
}

// AttribSummary is the full per-step time attribution of a trace.
type AttribSummary struct {
	Steps     []StepAttribution `json:"steps"`
	RankSteps []RankStep        `json:"rank_steps"`

	// Fleet-wide totals across all rank steps.
	Total   time.Duration `json:"total"`
	Compute time.Duration `json:"compute"`
	Comm    time.Duration `json:"comm"`
	Coord   time.Duration `json:"coord"`
	Stall   time.Duration `json:"stall"`

	// P95 is the fleet 95th percentile of rank-step totals, the straggler
	// reference point; StragglerEvents counts flagged (step, rank) pairs.
	P95             time.Duration `json:"p95"`
	StragglerEvents int           `json:"straggler_events"`
}

type interval struct {
	start, end time.Time
	phase      Phase
}

// Attribute folds per-rank span trees into compute/comm/stall/coord phase
// totals per step. Every span named *.rank_step roots one rank's share of a
// step (its "iter" and "rank" attributes key the grouping); the classified
// descendants of that span — plus any span elsewhere in the trace that is a
// causal descendant, like the allreduce a reducer runs on the rank's behalf
// — claim time with priority compute > comm > coord where they overlap, and
// whatever remains uncovered is stall.
//
// A rank is flagged a straggler when its step total reaches the fleet P95
// of all rank-step totals and exceeds 1.5x the median of its own step —
// "slow for the fleet and slower than its peers this step". (P95 is
// nearest-rank, so for small fleets it is the slowest sample; the median
// guard is what keeps uniform steps unflagged.)
func Attribute(spans []SpanRecord) AttribSummary {
	byID := make(map[uint64]SpanRecord, len(spans))
	children := make(map[uint64][]SpanRecord, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}

	var rankSteps []RankStep
	for _, rs := range spans {
		if !strings.HasSuffix(rs.Name, ".rank_step") {
			continue
		}
		iter := attrInt(rs, "iter", -1)
		rank := attrOr(rs, "rank", rs.Proc)
		var ivs []interval
		var walk func(id uint64)
		walk = func(id uint64) {
			for _, c := range children[id] {
				if p := ClassifySpan(c.Name); p != PhaseOther {
					ivs = append(ivs, clip(c.Start, c.End, rs.Start, rs.End, p))
				}
				walk(c.ID)
			}
		}
		walk(rs.ID)
		step := RankStep{Iter: iter, Rank: rank, Proc: rs.Proc, Total: rs.End.Sub(rs.Start)}
		step.Compute, step.Comm, step.Coord = sweep(ivs)
		step.Stall = step.Total - step.Compute - step.Comm - step.Coord
		if step.Stall < 0 {
			step.Stall = 0
		}
		rankSteps = append(rankSteps, step)
	}
	sort.Slice(rankSteps, func(i, j int) bool {
		if rankSteps[i].Iter != rankSteps[j].Iter {
			return rankSteps[i].Iter < rankSteps[j].Iter
		}
		return rankSteps[i].Rank < rankSteps[j].Rank
	})

	sum := AttribSummary{RankSteps: rankSteps}
	if len(rankSteps) == 0 {
		return sum
	}

	// Fleet P95 of rank-step totals.
	totals := make([]time.Duration, len(rankSteps))
	for i, s := range rankSteps {
		totals[i] = s.Total
	}
	sort.Slice(totals, func(i, j int) bool { return totals[i] < totals[j] })
	sum.P95 = totals[(len(totals)*95)/100]

	// Group by iter, flag stragglers against the step median.
	byIter := make(map[int][]int)
	var iters []int
	for i, s := range rankSteps {
		if _, ok := byIter[s.Iter]; !ok {
			iters = append(iters, s.Iter)
		}
		byIter[s.Iter] = append(byIter[s.Iter], i)
	}
	sort.Ints(iters)
	for _, iter := range iters {
		idx := byIter[iter]
		med := medianTotal(rankSteps, idx)
		sa := StepAttribution{Iter: iter, Ranks: len(idx)}
		for _, i := range idx {
			s := &rankSteps[i]
			if s.Total >= sum.P95 && s.Total > med+med/2 {
				s.Straggler = true
				sa.Stragglers = append(sa.Stragglers, s.Rank)
				sum.StragglerEvents++
			}
			sa.Total += s.Total
			sa.Compute += s.Compute
			sa.Comm += s.Comm
			sa.Coord += s.Coord
			sa.Stall += s.Stall
		}
		sum.Steps = append(sum.Steps, sa)
		sum.Total += sa.Total
		sum.Compute += sa.Compute
		sum.Comm += sa.Comm
		sum.Coord += sa.Coord
		sum.Stall += sa.Stall
	}
	return sum
}

// sweep resolves overlapping phase intervals with priority compute > comm >
// coord and returns the exclusive time claimed by each phase.
func sweep(ivs []interval) (compute, comm, coord time.Duration) {
	if len(ivs) == 0 {
		return 0, 0, 0
	}
	cuts := make([]time.Time, 0, 2*len(ivs))
	for _, iv := range ivs {
		if iv.end.After(iv.start) {
			cuts = append(cuts, iv.start, iv.end)
		}
	}
	if len(cuts) == 0 {
		return 0, 0, 0
	}
	sort.Slice(cuts, func(i, j int) bool { return cuts[i].Before(cuts[j]) })
	for i := 1; i < len(cuts); i++ {
		a, b := cuts[i-1], cuts[i]
		if !b.After(a) {
			continue
		}
		best := PhaseOther
		for _, iv := range ivs {
			if !iv.start.After(a) && !iv.end.Before(b) {
				best = maxPhase(best, iv.phase)
			}
		}
		d := b.Sub(a)
		switch best {
		case PhaseCompute:
			compute += d
		case PhaseComm:
			comm += d
		case PhaseCoord:
			coord += d
		}
	}
	return compute, comm, coord
}

// maxPhase returns the higher-priority phase (compute > comm > coord >
// other).
func maxPhase(a, b Phase) Phase {
	rank := func(p Phase) int {
		switch p {
		case PhaseCompute:
			return 3
		case PhaseComm:
			return 2
		case PhaseCoord:
			return 1
		default:
			return 0
		}
	}
	if rank(b) > rank(a) {
		return b
	}
	return a
}

func clip(start, end, lo, hi time.Time, p Phase) interval {
	if start.Before(lo) {
		start = lo
	}
	if end.After(hi) {
		end = hi
	}
	return interval{start: start, end: end, phase: p}
}

func medianTotal(steps []RankStep, idx []int) time.Duration {
	totals := make([]time.Duration, len(idx))
	for i, j := range idx {
		totals[i] = steps[j].Total
	}
	sort.Slice(totals, func(i, j int) bool { return totals[i] < totals[j] })
	return totals[len(totals)/2]
}

func attrInt(s SpanRecord, key string, def int) int {
	v, ok := s.Attr(key)
	if !ok {
		return def
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return def
	}
	return n
}

func attrOr(s SpanRecord, key, def string) string {
	if v, ok := s.Attr(key); ok {
		return v
	}
	return def
}

// Publish surfaces the attribution as Prometheus gauges on reg. Gauges (not
// counters) so re-attributing a fresh trace replaces the values.
func (a AttribSummary) Publish(reg *Registry) {
	if reg == nil {
		return
	}
	secs := func(d time.Duration) float64 { return d.Seconds() }
	reg.Gauge("attrib_compute_seconds").Set(secs(a.Compute))
	reg.Gauge("attrib_comm_seconds").Set(secs(a.Comm))
	reg.Gauge("attrib_coord_seconds").Set(secs(a.Coord))
	reg.Gauge("attrib_stall_seconds").Set(secs(a.Stall))
	reg.Gauge("attrib_step_total_seconds").Set(secs(a.Total))
	reg.Gauge("attrib_rank_steps").Set(float64(len(a.RankSteps)))
	reg.Gauge("attrib_straggler_events").Set(float64(a.StragglerEvents))
	reg.Gauge("attrib_p95_seconds").Set(secs(a.P95))
}

// WriteAttribution renders the summary as a per-step table plus fleet
// totals.
func WriteAttribution(w io.Writer, a AttribSummary) error {
	if len(a.RankSteps) == 0 {
		_, err := fmt.Fprintln(w, "attribution: no rank-step spans in trace")
		return err
	}
	t := metrics.NewTable("Per-step time attribution",
		"step", "ranks", "total", "compute", "comm", "coord", "stall", "stragglers")
	for _, s := range a.Steps {
		t.AddRow(s.Iter, s.Ranks, s.Total.String(), s.Compute.String(),
			s.Comm.String(), s.Coord.String(), s.Stall.String(),
			strings.Join(s.Stragglers, ","))
	}
	t.Render(w)
	pct := func(d time.Duration) float64 {
		if a.Total == 0 {
			return 0
		}
		return 100 * float64(d) / float64(a.Total)
	}
	_, err := fmt.Fprintf(w,
		"fleet: rank-steps=%d total=%v compute=%.1f%% comm=%.1f%% coord=%.1f%% stall=%.1f%% p95=%v stragglers=%d\n",
		len(a.RankSteps), a.Total, pct(a.Compute), pct(a.Comm), pct(a.Coord),
		pct(a.Stall), a.P95, a.StragglerEvents)
	return err
}
