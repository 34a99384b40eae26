package main

import (
	"sync/atomic"
	"time"

	"aergia/internal/chaos"
	"aergia/internal/comm"
)

// Node roles the timing decorator attributes busy time to.
const (
	roleClient = iota
	roleFederator
	roleOther
	roles
)

func roleOf(id comm.NodeID) int {
	switch {
	case id == comm.FederatorID:
		return roleFederator
	case id >= 0:
		return roleClient
	default:
		return roleOther
	}
}

// timedTransport is the benchmark's comm.Transport decorator: it times
// every handler, Invoke and After callback per node role, and counts the
// messages and bytes actors send. It is passive: nothing is delayed,
// reordered or dropped, and the optional interfaces the layers above and
// below rely on (comm.PayloadRegistry, chaos.Rejoiner) are forwarded.
type timedTransport struct {
	inner    comm.Transport
	busy     [roles]atomic.Int64 // nanoseconds
	messages atomic.Int64
	bytes    atomic.Int64
}

var (
	_ comm.Transport       = (*timedTransport)(nil)
	_ comm.PayloadRegistry = (*timedTransport)(nil)
)

func newTimedTransport(inner comm.Transport) *timedTransport {
	return &timedTransport{inner: inner}
}

func (t *timedTransport) charge(id comm.NodeID, start time.Time) {
	t.busy[roleOf(id)].Add(int64(time.Since(start)))
}

func (t *timedTransport) env(id comm.NodeID, inner comm.Env) comm.Env {
	return &timedEnv{t: t, id: id, inner: inner}
}

// RegisterPayload forwards to serializing inner transports.
func (t *timedTransport) RegisterPayload(v any) {
	if reg, ok := t.inner.(comm.PayloadRegistry); ok {
		reg.RegisterPayload(v)
	}
}

// Register implements comm.Transport; deliveries to h are timed.
func (t *timedTransport) Register(id comm.NodeID, h comm.Handler) {
	t.inner.Register(id, &timedHandler{t: t, id: id, h: h})
}

// Seal implements comm.Transport.
func (t *timedTransport) Seal() error { return t.inner.Seal() }

// Env implements comm.Transport.
func (t *timedTransport) Env(id comm.NodeID) comm.Env { return t.env(id, t.inner.Env(id)) }

// Invoke implements comm.Transport; fn is timed like a handler.
func (t *timedTransport) Invoke(id comm.NodeID, fn func(comm.Env)) {
	t.inner.Invoke(id, func(env comm.Env) {
		start := time.Now()
		fn(t.env(id, env))
		t.charge(id, start)
	})
}

// Drive implements comm.Transport.
func (t *timedTransport) Drive(done <-chan struct{}) error { return t.inner.Drive(done) }

// Close implements comm.Transport.
func (t *timedTransport) Close() error { return t.inner.Close() }

// timedEnv counts sends and times After callbacks.
type timedEnv struct {
	t     *timedTransport
	id    comm.NodeID
	inner comm.Env
}

func (e *timedEnv) Now() time.Duration { return e.inner.Now() }

func (e *timedEnv) Send(msg comm.Message) {
	e.t.messages.Add(1)
	e.t.bytes.Add(int64(msg.Size))
	e.inner.Send(msg)
}

func (e *timedEnv) After(d time.Duration, fn func()) comm.Timer {
	return e.inner.After(d, func() {
		start := time.Now()
		fn()
		e.t.charge(e.id, start)
	})
}

// timedHandler times deliveries to one node.
type timedHandler struct {
	t  *timedTransport
	id comm.NodeID
	h  comm.Handler
}

func (p *timedHandler) OnMessage(env comm.Env, msg comm.Message) {
	start := time.Now()
	p.h.OnMessage(p.t.env(p.id, env), msg)
	p.t.charge(p.id, start)
}

// OnRejoin forwards the fault layer's rejoin to the wrapped actor: below
// this decorator, the fault layer holds this proxy as the node's handler.
func (p *timedHandler) OnRejoin(env comm.Env) {
	if r, ok := p.h.(chaos.Rejoiner); ok {
		start := time.Now()
		r.OnRejoin(p.t.env(p.id, env))
		p.t.charge(p.id, start)
	}
}
