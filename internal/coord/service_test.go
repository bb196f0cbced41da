package coord

import (
	"context"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/elan-sys/elan/internal/clock"
	"github.com/elan-sys/elan/internal/store"
	"github.com/elan-sys/elan/internal/telemetry"
	"github.com/elan-sys/elan/internal/transport"
)

// simBus builds a bus on an auto-advanced sim clock: ack timeouts and
// resends run in virtual time.
func simBus(t *testing.T, cfg transport.BusConfig) *transport.Bus {
	t.Helper()
	sim := clock.NewSim(time.Unix(0, 0))
	t.Cleanup(sim.AutoAdvance(0))
	cfg.Clock = sim
	bus := transport.NewBus(cfg)
	t.Cleanup(bus.Close)
	return bus
}

// coordEnv is one AM service on one transport, plus a way to dial clients
// to it by name.
type coordEnv struct {
	svc  *Service
	dial func(name string) *Client
}

// coordTransports serves an AM over each transport the protocol runs on.
var coordTransports = []struct {
	name  string
	serve func(t *testing.T, am *AM) coordEnv
}{
	{"bus", func(t *testing.T, am *AM) coordEnv {
		bus := simBus(t, transport.DefaultBusConfig())
		svc, err := NewServiceCtx(context.Background(), am, bus, "am")
		if err != nil {
			t.Fatalf("NewServiceCtx: %v", err)
		}
		dial := func(name string) *Client {
			cl, err := NewClientCtx(context.Background(), bus, name, svc.Addr())
			if err != nil {
				t.Fatalf("NewClientCtx: %v", err)
			}
			return cl
		}
		return coordEnv{svc: svc, dial: dial}
	}},
	{"tcp", func(t *testing.T, am *AM) coordEnv {
		svc, err := NewTCPServiceCtx(context.Background(), am, "127.0.0.1:0")
		if err != nil {
			t.Fatalf("NewTCPServiceCtx: %v", err)
		}
		t.Cleanup(svc.Close)
		dial := func(string) *Client {
			cl := NewTCPClientCtx(context.Background(), svc.Addr())
			t.Cleanup(cl.Close)
			return cl
		}
		return coordEnv{svc: svc, dial: dial}
	}},
}

// forEachTransport runs fn as a subtest per transport, each against a
// fresh AM.
func forEachTransport(t *testing.T, fn func(t *testing.T, env coordEnv)) {
	for _, tp := range coordTransports {
		t.Run(tp.name, func(t *testing.T) {
			am, err := NewAM("job-"+tp.name, store.New())
			if err != nil {
				t.Fatalf("NewAM: %v", err)
			}
			fn(t, tp.serve(t, am))
		})
	}
}

func TestServiceFullAdjustment(t *testing.T) {
	forEachTransport(t, func(t *testing.T, env coordEnv) {
		sched, w5, w6, existing := env.dial("scheduler"), env.dial("w5"), env.dial("w6"), env.dial("w1")
		if err := sched.RequestAdjustment(ScaleOut, []string{"w5", "w6"}, nil); err != nil {
			t.Fatalf("RequestAdjustment: %v", err)
		}
		// Existing worker coordinates before the new workers reported: no
		// adjustment, no blocking.
		if _, ok, err := existing.Coordinate(); ok || err != nil {
			t.Fatalf("early Coordinate = %v, %v", ok, err)
		}
		st, err := existing.AMState()
		if err != nil {
			t.Fatalf("AMState: %v", err)
		}
		if st.State != Pending || len(st.Pending) != 2 {
			t.Fatalf("AMState = %+v", st)
		}
		if err := w5.ReportReady("w5"); err != nil {
			t.Fatalf("ReportReady w5: %v", err)
		}
		if err := w6.ReportReady("w6"); err != nil {
			t.Fatalf("ReportReady w6: %v", err)
		}
		adj, ok, err := existing.Coordinate()
		if err != nil || !ok {
			t.Fatalf("Coordinate = %v, %v", ok, err)
		}
		if adj.Kind != ScaleOut || !reflect.DeepEqual(adj.Add, []string{"w5", "w6"}) {
			t.Fatalf("adjustment = %+v", adj)
		}
	})
}

// TestServiceErrorsPropagate: the AM's rejections reach the caller with
// their message intact. Sentinel identity is bus-only (TCP carries just
// the transport sentinels), so the rows match on text.
func TestServiceErrorsPropagate(t *testing.T) {
	forEachTransport(t, func(t *testing.T, env coordEnv) {
		sched, w9 := env.dial("scheduler"), env.dial("w9")
		if err := sched.RequestAdjustment(ScaleOut, nil, nil); err == nil ||
			!strings.Contains(err.Error(), "scale-out without new workers") {
			t.Fatalf("invalid request error = %v", err)
		}
		if err := w9.ReportReady("w9"); err == nil ||
			!strings.Contains(err.Error(), `report from "w9" in state`) {
			t.Fatalf("stray report error = %v", err)
		}
		if err := sched.RequestAdjustment(ScaleOut, []string{"w5"}, nil); err != nil {
			t.Fatalf("RequestAdjustment: %v", err)
		}
		if err := sched.RequestAdjustment(ScaleIn, nil, []string{"w1"}); err == nil ||
			!strings.Contains(err.Error(), ErrBusy.Error()) {
			t.Fatalf("overlapping request error = %v", err)
		}
	})
}

func TestServiceUnknownKind(t *testing.T) {
	forEachTransport(t, func(t *testing.T, env coordEnv) {
		cl := env.dial("x")
		if _, err := cl.call(context.Background(), "bogus.kind", nil); err == nil ||
			!strings.Contains(err.Error(), `unknown message kind "bogus.kind"`) {
			t.Fatalf("unknown kind error = %v", err)
		}
	})
}

// TestBeats: a batcher wired to Client.Beats coalesces a tick of beats
// into one frame that the service fans into its monitor; without a monitor
// the frame is rejected.
func TestBeats(t *testing.T) {
	forEachTransport(t, func(t *testing.T, env coordEnv) {
		cl := env.dial("w1")
		if err := cl.Beats([]string{"w9"}); err == nil || !strings.Contains(err.Error(), "no heartbeat monitor") {
			t.Fatalf("Beats without monitor = %v, want ErrNoMonitor", err)
		}
		sim := clock.NewSim(time.Unix(0, 0))
		hb, err := NewHeartbeatMonitor(sim)
		if err != nil {
			t.Fatal(err)
		}
		env.svc.SetMonitor(hb)
		b, err := NewBeatBatcher(sim, cl.Beats)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range []string{"w1", "w2", "w3", "w1"} {
			if err := b.Beat(w); err != nil {
				t.Fatal(err)
			}
		}
		if err := b.Flush(); err != nil {
			t.Fatal(err)
		}
		if got := hb.Tracked(); !reflect.DeepEqual(got, []string{"w1", "w2", "w3"}) {
			t.Fatalf("Tracked = %v", got)
		}
		if b.Frames() != 1 {
			t.Fatalf("Frames = %d, want 1", b.Frames())
		}
	})
}

// TestServiceRequestAdjustmentTraced: the requester's trace crosses the
// transport twice — stored with the pending adjustment and handed back by
// Coordinate, and as the remote parent of the service's own span.
func TestServiceRequestAdjustmentTraced(t *testing.T) {
	forEachTransport(t, func(t *testing.T, env coordEnv) {
		rec := telemetry.NewRecorder(clock.NewSim(time.Unix(0, 0)), 0)
		env.svc.SetTracer(rec)
		caller := rec.StartSpan("sched.request")
		ctx := telemetry.ContextWithSpan(context.Background(), caller)
		if err := env.dial("scheduler").RequestAdjustmentTraced(ctx, ScaleOut, []string{"w5"}, nil, caller.Context()); err != nil {
			t.Fatalf("RequestAdjustmentTraced: %v", err)
		}
		caller.End()
		if err := env.dial("w5").ReportReady("w5"); err != nil {
			t.Fatalf("ReportReady: %v", err)
		}
		adj, ok, err := env.dial("w1").Coordinate()
		if err != nil || !ok {
			t.Fatalf("Coordinate = %v, %v", ok, err)
		}
		if adj.Trace != caller.Context() {
			t.Fatalf("adjustment trace = %+v, want the requester's %+v", adj.Trace, caller.Context())
		}

		byID := map[uint64]telemetry.SpanRecord{}
		var svc *telemetry.SpanRecord
		for _, s := range rec.Snapshot() {
			byID[s.ID] = s
			if s.Name == "coord.adjust_request" {
				svc = &s
			}
		}
		if svc == nil {
			t.Fatal("no coord.adjust_request span")
		}
		callerRec := byID[caller.Context().Span]
		if !svc.Remote || svc.Trace != callerRec.Trace {
			t.Fatalf("coord.adjust_request = %+v, want a remote span in trace %d", *svc, callerRec.Trace)
		}
		// The parent chain (through a transport.call span on the bus)
		// reaches the caller.
		for p := svc.Parent; p != callerRec.ID; p = byID[p].Parent {
			if p == 0 {
				t.Fatalf("coord.adjust_request does not descend from the caller span %d", callerRec.ID)
			}
		}
	})
}

// TestServiceSurvivesMessageLoss is bus-only: drops and resends are the
// bus's fault model, and its incarnation dedup makes delivery exactly-once.
func TestServiceSurvivesMessageLoss(t *testing.T) {
	cfg := transport.DefaultBusConfig()
	cfg.DropRate = 0.3
	cfg.Seed = 99
	cfg.AckTimeout = 5 * time.Millisecond
	cfg.MaxRetries = 60
	bus := simBus(t, cfg)
	am, err := NewAM("job1", store.New())
	if err != nil {
		t.Fatalf("NewAM: %v", err)
	}
	if _, err := NewServiceCtx(context.Background(), am, bus, "am"); err != nil {
		t.Fatalf("NewServiceCtx: %v", err)
	}
	dial := func(name string) *Client {
		cl, err := NewClientCtx(context.Background(), bus, name, "am")
		if err != nil {
			t.Fatalf("NewClientCtx: %v", err)
		}
		return cl
	}
	if err := dial("scheduler").RequestAdjustment(ScaleOut, []string{"w5"}, nil); err != nil {
		t.Fatalf("RequestAdjustment under loss: %v", err)
	}
	if err := dial("w5").ReportReady("w5"); err != nil {
		t.Fatalf("ReportReady under loss: %v", err)
	}
	if am.State() != Ready {
		t.Fatalf("state = %v, want Ready", am.State())
	}
	// Despite resends, the adjustment is delivered exactly once.
	existing := dial("w1")
	var delivered int
	for i := 0; i < 5; i++ {
		_, ok, err := existing.Coordinate()
		if err != nil {
			t.Fatalf("Coordinate: %v", err)
		}
		if ok {
			delivered++
		}
	}
	if delivered != 1 {
		t.Fatalf("adjustment delivered %d times, want 1", delivered)
	}
}

// TestTCPServiceSurvivesAMRestart is TCP-only: the AM crashes
// mid-adjustment, a new incarnation recovers from the store and re-serves
// on the same port; the client's reconnect backoff rides it out and the
// adjustment completes with the first report preserved.
func TestTCPServiceSurvivesAMRestart(t *testing.T) {
	ctx := context.Background()
	st := store.New()
	am1, err := NewAM("ft-job", st)
	if err != nil {
		t.Fatalf("NewAM: %v", err)
	}
	svc1, err := NewTCPServiceCtx(ctx, am1, "127.0.0.1:0")
	if err != nil {
		t.Fatalf("NewTCPServiceCtx: %v", err)
	}
	addr := svc1.Addr()
	client := NewTCPClientCtx(ctx, addr)
	defer client.Close()
	if err := client.RequestAdjustment(ScaleOut, []string{"w5", "w6"}, nil); err != nil {
		t.Fatalf("RequestAdjustment: %v", err)
	}
	if err := client.ReportReady("w5"); err != nil {
		t.Fatalf("ReportReady w5: %v", err)
	}
	// Crash.
	svc1.Close()
	// Recover on the same address.
	am2, err := Recover("ft-job", st)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	svc2, err := NewTCPServiceCtx(ctx, am2, addr)
	if err != nil {
		t.Fatalf("re-serve: %v", err)
	}
	defer svc2.Close()
	st2, err := client.AMState()
	if err != nil {
		t.Fatalf("AMState after restart: %v", err)
	}
	if st2.State != Pending || len(st2.Pending) != 1 || st2.Pending[0] != "w6" {
		t.Fatalf("recovered state = %+v, want pending [w6]", st2)
	}
	if err := client.ReportReady("w6"); err != nil {
		t.Fatalf("ReportReady w6: %v", err)
	}
	adj, ok, err := client.Coordinate()
	if err != nil || !ok || len(adj.Add) != 2 {
		t.Fatalf("Coordinate after restart = %+v, %v, %v", adj, ok, err)
	}
}
