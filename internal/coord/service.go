package coord

import (
	"context"
	"encoding/json"
	"fmt"
	"sync/atomic"

	"github.com/elan-sys/elan/internal/telemetry"
	"github.com/elan-sys/elan/internal/transport"
)

// This file exposes the AM over the transport layer, giving the paper's
// Service API (Table III) a real message-passing implementation: the
// scheduler and workers interact with the AM only through messages, never
// shared memory. The protocol is written once and runs over either
// transport — the in-process bus (resends plus incarnation dedup) or
// pooled TCP frames (reconnect plus backoff). Message kinds:
//
//	adjust.request   scheduler -> AM    RequestAdjustment
//	worker.report    new worker -> AM   ReportReady
//	worker.coord     existing -> AM     Coordinate
//	worker.beats     workers -> AM      batched liveness (beats.go)
//	am.state         anyone -> AM       State/Seq inspection

// Message kinds understood by the AM service.
const (
	KindAdjustRequest = "adjust.request"
	KindWorkerReport  = "worker.report"
	KindCoordinate    = "worker.coord"
	KindAMState       = "am.state"
)

// AdjustRequestMsg is the payload of adjust.request.
type AdjustRequestMsg struct {
	Kind   Kind     `json:"kind"`
	Add    []string `json:"add"`
	Remove []string `json:"remove"`
	// Trace is the requesting span's identity, persisted with the pending
	// adjustment so the eventual apply joins the requester's trace.
	Trace telemetry.TraceContext `json:"trace,omitempty"`
}

// ReportMsg is the payload of worker.report.
type ReportMsg struct {
	Worker string `json:"worker"`
}

// CoordReplyMsg is the reply to worker.coord.
type CoordReplyMsg struct {
	HasAdjustment bool       `json:"hasAdjustment"`
	Adjustment    Adjustment `json:"adjustment"`
}

// StateReplyMsg is the reply to am.state.
type StateReplyMsg struct {
	State   State    `json:"state"`
	Seq     int64    `json:"seq"`
	Pending []string `json:"pending"`
}

// Service serves an AM over one transport: a bus endpoint or a TCP
// listener. Both run the same handler, so the message kinds, spans and
// error text are identical whichever transport carries them; only the
// error identity differs (TCP carries the transport sentinels alone).
type Service struct {
	am    *AM
	addr  string
	close func()
	// tr and hb are swapped atomically: a recovered service may already be
	// answering retried calls when its owner attaches them.
	tr atomic.Pointer[telemetry.Tracer]
	hb atomic.Pointer[HeartbeatMonitor]
}

func newService(am *AM) (*Service, error) {
	if am == nil {
		return nil, fmt.Errorf("coord: nil AM")
	}
	s := &Service{am: am}
	s.SetTracer(nil)
	return s, nil
}

// serve records where the service answers and how it stops, and ties
// Close to ctx.
func (s *Service) serve(ctx context.Context, addr string, stop func()) *Service {
	s.addr, s.close = addr, stop
	if ctx != nil && ctx.Done() != nil {
		context.AfterFunc(ctx, s.Close)
	}
	return s
}

// NewServiceCtx registers the AM at name on the bus and starts serving.
// When ctx is cancelled the service deregisters from the bus, so an AM
// torn down by its job's context stops answering automatically.
func NewServiceCtx(ctx context.Context, am *AM, bus *transport.Bus, name string) (*Service, error) {
	s, err := newService(am)
	if err != nil {
		return nil, err
	}
	if _, err := bus.Endpoint(name, s.handle); err != nil {
		return nil, fmt.Errorf("coord: register service: %w", err)
	}
	return s.serve(ctx, name, func() { bus.Remove(name) }), nil
}

// NewTCPServiceCtx serves the AM on addr ("127.0.0.1:0" for an ephemeral
// port) over the pooled, multiplexed TCP frames of transport.Server — the
// deployment the paper describes, with the scheduler outside the job's
// process. Cancelling ctx shuts the server down, tearing open connections;
// the AM state machine's persistence lets a successor on the same address
// resume where this one stopped.
func NewTCPServiceCtx(ctx context.Context, am *AM, addr string) (*Service, error) {
	s, err := newService(am)
	if err != nil {
		return nil, err
	}
	srv := transport.NewServer(s.handle)
	bound, err := srv.Listen(addr)
	if err != nil {
		return nil, fmt.Errorf("coord: tcp service: %w", err)
	}
	return s.serve(ctx, bound, srv.Close), nil
}

// Addr returns where the service answers: its bus endpoint name, or the
// bound TCP address.
func (s *Service) Addr() string { return s.addr }

// Close stops serving; in-flight calls against the service fail with
// transport errors. Closing twice is safe.
func (s *Service) Close() { s.close() }

// SetTracer makes the service open a span per AM operation, a remote child
// of the caller's span (via the transport handler's span when the
// transport traces). Safe to call while the service is answering.
func (s *Service) SetTracer(tr telemetry.Tracer) {
	tr = telemetry.OrNop(tr)
	s.tr.Store(&tr)
}

// SetMonitor attaches the liveness monitor that batched worker.beats
// frames fan into. Safe to call while the service is answering.
func (s *Service) SetMonitor(hb *HeartbeatMonitor) { s.hb.Store(hb) }

func (s *Service) handle(m transport.Message) ([]byte, error) {
	tr := *s.tr.Load()
	switch m.Kind {
	case KindAdjustRequest:
		var req AdjustRequestMsg
		if err := json.Unmarshal(m.Payload, &req); err != nil {
			return nil, fmt.Errorf("coord: bad adjust.request: %w", err)
		}
		span := telemetry.StartRemote(tr, "coord.adjust_request", m.Trace)
		span.Annotate("kind", req.Kind.String())
		// The trace stored with the pending adjustment is the original
		// requester's when it sent one, else this service span's, so
		// apply-side spans always have the deepest available anchor.
		tc := req.Trace
		if !tc.Valid() {
			tc = span.Context()
		}
		err := s.am.RequestAdjustmentTraced(req.Kind, req.Add, req.Remove, tc)
		if err != nil {
			span.Annotate("error", err.Error())
		}
		span.End()
		if err != nil {
			return nil, err
		}
		return []byte(`{}`), nil
	case KindWorkerReport:
		var req ReportMsg
		if err := json.Unmarshal(m.Payload, &req); err != nil {
			return nil, fmt.Errorf("coord: bad worker.report: %w", err)
		}
		span := telemetry.StartRemote(tr, "coord.report_ready", m.Trace)
		span.Annotate("worker", req.Worker)
		err := s.am.ReportReady(req.Worker)
		if err != nil {
			span.Annotate("error", err.Error())
		}
		span.End()
		if err != nil {
			return nil, err
		}
		return []byte(`{}`), nil
	case KindCoordinate:
		span := telemetry.StartRemote(tr, "coord.coordinate", m.Trace)
		adj, ok, err := s.am.Coordinate()
		if err != nil {
			span.Annotate("error", err.Error())
		}
		span.End()
		if err != nil {
			return nil, err
		}
		return json.Marshal(CoordReplyMsg{HasAdjustment: ok, Adjustment: adj})
	case KindHeartbeats:
		return handleBeats(s.hb.Load(), m.Payload)
	case KindAMState:
		return json.Marshal(StateReplyMsg{
			State:   s.am.State(),
			Seq:     s.am.Seq(),
			Pending: s.am.PendingWorkers(),
		})
	default:
		return nil, fmt.Errorf("coord: unknown message kind %q", m.Kind)
	}
}

// Client is the worker/scheduler side of the AM service. Every RPC goes
// through call, bound at construction to one transport; every call runs
// under the client's parent context unless the caller passes its own, so
// cancelling the parent aborts in-flight resend and reconnect loops.
type Client struct {
	ctx   context.Context
	call  func(ctx context.Context, kind string, payload []byte) ([]byte, error)
	close func()
}

// NewClientCtx creates a client endpoint named name talking to the AM at
// amName on the same bus. The bus resends and deduplicates, so each call
// reaches the AM exactly once.
func NewClientCtx(ctx context.Context, bus *transport.Bus, name, amName string) (*Client, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	ep, err := bus.Endpoint(name, nil)
	if err != nil {
		return nil, fmt.Errorf("coord: client endpoint: %w", err)
	}
	call := func(ctx context.Context, kind string, payload []byte) ([]byte, error) {
		return ep.CallCtx(ctx, amName, kind, payload)
	}
	return &Client{ctx: ctx, call: call, close: func() { bus.Remove(name) }}, nil
}

// tcpCallAttempts is the TCP client's retry budget per call: enough
// jittered backoff to ride out an AM restart on the same address.
const tcpCallAttempts = 5

// NewTCPClientCtx creates a client for the AM served at addr over a
// pooled, multiplexed transport.Client: connections are dialed lazily,
// reused across calls, and carry concurrent requests. A dead connection
// fails its in-flight calls with retryable transport errors, the pool
// invalidates it, and the retry backoff redials the AM's next incarnation.
// Handler errors (the AM's own rejections) return at once, so a
// non-idempotent call runs at most once. Cancelling ctx closes the pool.
func NewTCPClientCtx(ctx context.Context, addr string) *Client {
	if ctx == nil {
		ctx = context.Background()
	}
	tc := transport.NewClient(addr, transport.ClientConfig{})
	policy := transport.RetryPolicy{Attempts: tcpCallAttempts}
	call := func(ctx context.Context, kind string, payload []byte) ([]byte, error) {
		return tc.CallRetry(ctx, kind, payload, transport.DefaultCallTimeout, policy)
	}
	if ctx.Done() != nil {
		context.AfterFunc(ctx, tc.Close)
	}
	return &Client{ctx: ctx, call: call, close: tc.Close}
}

// Close releases the client's transport: its bus endpoint, or its pooled
// connections (resolving in-flight calls with transport.ErrClosed).
// Closing twice is safe.
func (c *Client) Close() { c.close() }

// RequestAdjustment calls the AM's service API.
func (c *Client) RequestAdjustment(kind Kind, add, remove []string) error {
	return c.RequestAdjustmentTraced(c.ctx, kind, add, remove, telemetry.TraceContext{})
}

// RequestAdjustmentTraced is RequestAdjustment under a caller context (which
// may carry the requesting span for the transport layer) and with an
// explicit trace context stored alongside the pending adjustment. A nil ctx
// selects the client's parent context.
func (c *Client) RequestAdjustmentTraced(ctx context.Context, kind Kind, add, remove []string, tc telemetry.TraceContext) error {
	payload, err := json.Marshal(AdjustRequestMsg{Kind: kind, Add: add, Remove: remove, Trace: tc})
	if err != nil {
		return err
	}
	_, err = c.call(c.callCtx(ctx), KindAdjustRequest, payload)
	return err
}

// ReportReady reports this client's worker as started and initialized.
func (c *Client) ReportReady(worker string) error {
	return c.ReportReadyCtx(c.ctx, worker)
}

// ReportReadyCtx is ReportReady under a caller context; a span carried in
// ctx makes the report's transport call part of its trace.
func (c *Client) ReportReadyCtx(ctx context.Context, worker string) error {
	payload, err := json.Marshal(ReportMsg{Worker: worker})
	if err != nil {
		return err
	}
	_, err = c.call(c.callCtx(ctx), KindWorkerReport, payload)
	return err
}

// Beats ships one batched liveness frame covering workers — the wire form
// BeatBatcher produces. The service fans it into its attached monitor.
func (c *Client) Beats(workers []string) error {
	payload, err := json.Marshal(BeatsMsg{Workers: workers})
	if err != nil {
		return err
	}
	_, err = c.call(c.ctx, KindHeartbeats, payload)
	return err
}

// Coordinate polls the AM for a pending adjustment.
func (c *Client) Coordinate() (Adjustment, bool, error) {
	return c.CoordinateCtx(c.ctx)
}

// CoordinateCtx is Coordinate under a caller context; a span carried in ctx
// makes the coordination round-trip part of its trace.
func (c *Client) CoordinateCtx(ctx context.Context) (Adjustment, bool, error) {
	out, err := c.call(c.callCtx(ctx), KindCoordinate, nil)
	if err != nil {
		return Adjustment{}, false, err
	}
	var reply CoordReplyMsg
	if err := json.Unmarshal(out, &reply); err != nil {
		return Adjustment{}, false, fmt.Errorf("coord: bad coord reply: %w", err)
	}
	return reply.Adjustment, reply.HasAdjustment, nil
}

func (c *Client) callCtx(ctx context.Context) context.Context {
	if ctx == nil {
		return c.ctx
	}
	return ctx
}

// AMState fetches the AM's state for monitoring.
func (c *Client) AMState() (StateReplyMsg, error) {
	out, err := c.call(c.ctx, KindAMState, nil)
	if err != nil {
		return StateReplyMsg{}, err
	}
	var reply StateReplyMsg
	if err := json.Unmarshal(out, &reply); err != nil {
		return StateReplyMsg{}, fmt.Errorf("coord: bad state reply: %w", err)
	}
	return reply, nil
}
