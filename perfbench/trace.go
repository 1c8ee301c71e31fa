package main

import (
	"context"
	"encoding/json"
	"net"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"pardis/internal/ior"
	"pardis/internal/mp"
	"pardis/internal/orb"
	"pardis/internal/rts"
	"pardis/internal/transport"
)

// tracer holds the traced run's instruments. Every one of them sits on
// the outside of a layer: the benchmark times its own calls into a
// layer's public functions, or wraps an interface the program accepts
// (transport.Transport, rts.Thread, orb.RefSource). It is nil in the
// untraced run, which therefore executes none of this code.
type tracer struct {
	base time.Time
	wire wireMeter
	rts  rtsMeter

	// ORB workloads link the client's op span to the server's handler
	// span by RequestHeader.InvocationID.
	mu      sync.Mutex
	handler map[uint64]handlerSpan

	// SPMD workloads link client and server spans by the per-binding
	// invocation sequence, which the benchmark passes as the first
	// scalar argument.
	spmdSlots []spmdSlot

	// Derived per-op legs (ns), appended by the op loops.
	legs map[string]*hist

	// spans keeps the first keepSpans operations' spans for the trace
	// file written at exit.
	spans []span
}

// keepSpans bounds how many operations' spans are written out; the
// per-layer numbers are computed from every operation.
const keepSpans = 512

func newTracer() *tracer {
	return &tracer{
		base:      time.Now(),
		handler:   make(map[uint64]handlerSpan),
		spmdSlots: make([]spmdSlot, 1<<15),
		legs:      make(map[string]*hist),
	}
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// span is one recorded interval; Parent names the enclosing span of
// the same operation.
type span struct {
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// record appends an operation's spans while fewer than keepSpans
// operations are kept. The caller holds no lock.
func (t *tracer) record(op int64, sp []span) {
	t.mu.Lock()
	if op < keepSpans {
		for _, s := range sp {
			s.Op = op
			t.spans = append(t.spans, s)
		}
	}
	t.mu.Unlock()
}

// leg appends one derived per-op value under name.
func (t *tracer) leg(name string, v int64) {
	t.mu.Lock()
	s := t.legs[name]
	if s == nil {
		s = &hist{}
		t.legs[name] = s
	}
	s.add(v)
	t.mu.Unlock()
}

func (t *tracer) legQuantile(name string, q float64) float64 {
	s := t.legs[name]
	if s == nil {
		return 0
	}
	return s.quantile(q)
}

func (t *tracer) legMean(name string) float64 {
	if s := t.legs[name]; s != nil {
		return s.mean()
	}
	return 0
}

// writeSpans writes the kept spans as one JSON document.
func (t *tracer) writeSpans(path string) error {
	sort.SliceStable(t.spans, func(i, j int) bool { return t.spans[i].Op < t.spans[j].Op })
	b, err := json.Marshal(map[string]any{"unit": "ns since tracer start", "spans": t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// selfTime is the part of [start, end] not covered by any child
// interval: a layer's own time once the layers it called are removed.
func selfTime(start, end int64, children [][2]int64) int64 {
	iv := make([][2]int64, 0, len(children))
	for _, c := range children {
		lo, hi := max(c[0], start), min(c[1], end)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	covered, cur := int64(0), start
	for _, c := range iv {
		lo := max(c[0], cur)
		if c[1] > lo {
			covered += c[1] - lo
			cur = c[1]
		}
	}
	return end - start - covered
}

// handlerSpan is the server half of one ORB operation.
type handlerSpan struct {
	in, decEnd, out, encStart, encEnd int64
}

func (t *tracer) putHandler(inv uint64, h handlerSpan) {
	t.mu.Lock()
	t.handler[inv] = h
	t.mu.Unlock()
}

func (t *tracer) takeHandler(inv uint64) (handlerSpan, bool) {
	t.mu.Lock()
	h, ok := t.handler[inv]
	delete(t.handler, inv)
	t.mu.Unlock()
	return h, ok
}

// spmdSlot holds the server ranks' handler entry and exit times of one
// collective invocation. Server ranks write them; the client reads
// them after the invocation returned, so the fields are atomics.
type spmdSlot struct {
	in, out [spmdServerRanks]atomic.Int64
}

func (t *tracer) slot(seq uint64) *spmdSlot {
	if seq >= uint64(len(t.spmdSlots)) {
		return nil
	}
	return &t.spmdSlots[seq]
}

// wireMeter counts what crosses the transport through meteredTCP.
type wireMeter struct {
	writes  atomic.Int64 // Write and WriteBuffers calls
	writevs atomic.Int64 // WriteBuffers calls among them
	writeNs atomic.Int64
	bytes   atomic.Int64
}

// meteredTCP is the benchmark's transport.Transport: plain TCP whose
// connections time and count every write.
type meteredTCP struct {
	transport.TCP
	m *wireMeter
}

func (t meteredTCP) Dial(address string) (transport.Conn, error) {
	c, err := t.TCP.Dial(address)
	if err != nil {
		return nil, err
	}
	return &meteredConn{Conn: c, m: t.m}, nil
}

func (t meteredTCP) Listen(address string) (transport.Listener, error) {
	l, err := t.TCP.Listen(address)
	if err != nil {
		return nil, err
	}
	return meteredListener{Listener: l, m: t.m}, nil
}

type meteredListener struct {
	transport.Listener
	m *wireMeter
}

func (l meteredListener) Accept() (transport.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &meteredConn{Conn: c, m: l.m}, nil
}

type meteredConn struct {
	net.Conn
	m *wireMeter
}

func (c *meteredConn) Write(b []byte) (int, error) {
	t0 := time.Now()
	n, err := c.Conn.Write(b)
	c.m.writeNs.Add(int64(time.Since(t0)))
	c.m.writes.Add(1)
	c.m.bytes.Add(int64(n))
	return n, err
}

// WriteBuffers keeps the program's gather-write path: the frame
// writers look for this method, and net.Buffers only becomes one
// writev on the raw TCP connection underneath.
func (c *meteredConn) WriteBuffers(v *net.Buffers) (int64, error) {
	t0 := time.Now()
	n, err := v.WriteTo(c.Conn)
	c.m.writeNs.Add(int64(time.Since(t0)))
	c.m.writes.Add(1)
	c.m.writevs.Add(1)
	c.m.bytes.Add(n)
	return n, err
}

// rtsMeter accumulates time spent in the RTS collectives, by side.
type rtsMeter struct {
	gatherNs, scatterNs [2]atomic.Int64 // [sideClient, sideServer]
	bcastNs, barrierNs  atomic.Int64
	bytes               atomic.Int64 // bytes delivered to ranks by RTS calls
}

const (
	sideClient = 0
	sideServer = 1
)

// tracedThread wraps an rts.Thread and times its collectives. It
// forwards the optional one-sided capability (rts.WindowThread) so
// wrapping never changes which data path the program picks.
type tracedThread struct {
	rts.Thread
	side int
	m    *rtsMeter
}

func (t *tracedThread) Barrier() error {
	t0 := time.Now()
	err := t.Thread.Barrier()
	t.m.barrierNs.Add(int64(time.Since(t0)))
	return err
}

// Bcast time is the root's only: a non-root rank blocks in Bcast until
// the root sends — server workers between invocations, client ranks
// for the whole call while the root awaits the reply — so its time
// there is waiting, not broadcast work.
func (t *tracedThread) Bcast(root int, data []byte) ([]byte, error) {
	t0 := time.Now()
	out, err := t.Thread.Bcast(root, data)
	if t.Rank() == root {
		t.m.bcastNs.Add(int64(time.Since(t0)))
	} else {
		t.m.bytes.Add(int64(len(out)))
	}
	return out, err
}

func (t *tracedThread) GatherDoubles(root int, local []float64, counts []int) ([]float64, error) {
	t0 := time.Now()
	out, err := t.Thread.GatherDoubles(root, local, counts)
	t.m.gatherNs[t.side].Add(int64(time.Since(t0)))
	t.m.bytes.Add(8 * int64(len(out)))
	return out, err
}

func (t *tracedThread) ScatterDoubles(root int, data []float64, counts []int) ([]float64, error) {
	t0 := time.Now()
	out, err := t.Thread.ScatterDoubles(root, data, counts)
	t.m.scatterNs[t.side].Add(int64(time.Since(t0)))
	t.m.bytes.Add(8 * int64(len(out)))
	return out, err
}

func (t *tracedThread) AllgatherU64(v uint64) ([]uint64, error) {
	out, err := t.Thread.AllgatherU64(v)
	t.m.bytes.Add(8 * int64(len(out)))
	return out, err
}

func (t *tracedThread) RecvBytes(src, tag int) ([]byte, error) {
	out, err := t.Thread.RecvBytes(src, tag)
	t.m.bytes.Add(int64(len(out)))
	return out, err
}

// tracedWindowThread is tracedThread over a Thread that also offers
// one-sided windows.
type tracedWindowThread struct {
	*tracedThread
	wt rts.WindowThread
}

func (t tracedWindowThread) ExposeWindow(local []float64, expectFrom []int) (rts.Window, error) {
	return t.wt.ExposeWindow(local, expectFrom)
}

func wrapThread(th rts.Thread, side int, m *rtsMeter) rts.Thread {
	tt := &tracedThread{Thread: th, side: side, m: m}
	if wt, ok := rts.AsWindowThread(th); ok {
		return tracedWindowThread{tracedThread: tt, wt: wt}
	}
	return tt
}

// wrapperKeepsWindows reports whether wrapping a window-capable
// thread keeps the capability visible to rts.AsWindowThread.
func wrapperKeepsWindows() bool {
	w := mp.MustWorld(1)
	defer w.Close()
	_, ok := rts.AsWindowThread(wrapThread(rts.NewMessagePassing(w.Rank(0)), sideClient, &rtsMeter{}))
	return ok
}

// timedRefSource wraps the caller's orb.RefSource and times each
// RefFor, accumulating into the calling op's resolve interval.
type timedRefSource struct {
	orb.RefSource
	t          *tracer
	start, end int64 // first RefFor start, last RefFor end of the current op
	ns         int64 // summed RefFor time of the current op
}

func (s *timedRefSource) RefFor(ctx context.Context, name string) (*ior.Ref, error) {
	t0 := s.t.now()
	ref, err := s.RefSource.RefFor(ctx, name)
	t1 := s.t.now()
	if s.start == 0 {
		s.start = t0
	}
	s.end = t1
	s.ns += t1 - t0
	return ref, err
}

func (s *timedRefSource) reset() { s.start, s.end, s.ns = 0, 0, 0 }
