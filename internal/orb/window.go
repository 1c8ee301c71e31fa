// Destination windows: the one receive path of the SPMD data plane. A
// Window is a caller-owned []float64 registered under a 64-bit ID
// before the sender is told the ID exists. Both wires deliver into it:
//
//   - a MsgWindowPut frame (the peer wire) is landed by the connection
//     read loop straight off the read buffer into
//     dst[DstOff:DstOff+Count] — no body allocation, no CDR sequence
//     framing;
//   - a routed MsgBlockTransfer frame (the 1.0 wire) is a put into
//     window InvocationID, which the SPMD layer sets to the window's
//     BlockSinkKey; its payload is the doubles after the CDR sequence
//     length, landed from the frame body.
//
// Puts that race the registration are buffered in one pending buffer
// under a block-count, byte and TTL budget and flushed into the window
// when it registers.
//
// Safety: every put is checked against the registered destination
// before any byte lands — in range, and (routed) addressed to the
// window's owner rank with a sequence length equal to its Count — and
// its elements are reserved against the expected total first, so
// overlapping or stray puts fail the window instead of writing past
// it. The sender derives disjoint [DstOff, DstOff+Count) ranges from
// the same transfer plan both sides computed, so concurrent lands from
// multiple connections never overlap; completion is element-counted
// against the plan total, so a short stream can only end in a failed
// window, never a silently partial one.
package orb

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"pardis/internal/cdr"
	"pardis/internal/giop"
	"pardis/internal/telemetry"
)

// windowsActive counts currently registered (not yet cancelled)
// destination windows across the process — the leak canary for the
// data plane.
var windowsActive = telemetry.Default.Gauge("pardis_orb_windows_active")

// Window is one registered destination. It completes when the expected
// element count has landed, or fails on the first put that violates
// its bounds; Done/Err expose that to the waiter. All methods are safe
// for concurrent use — puts land from connection read goroutines while
// the owner waits.
type Window struct {
	id     uint64
	owner  int32
	dst    []float64
	expect int64
	// onPut, when set, runs after each landed put (on the delivering
	// connection's read goroutine — it must be cheap and non-blocking).
	// Receivers use it as a liveness signal, e.g. lease renewal.
	onPut func()

	claimed atomic.Int64 // elements admitted to land
	got     atomic.Int64 // elements landed
	nbytes  atomic.Int64

	mu   sync.Mutex
	err  error
	once sync.Once
	done chan struct{}
}

// Done is closed once the window has completed or failed.
func (w *Window) Done() <-chan struct{} { return w.done }

// Err reports the window's failure, if any, once Done is closed.
func (w *Window) Err() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err
}

// Bytes is the payload volume landed so far.
func (w *Window) Bytes() int64 { return w.nbytes.Load() }

func (w *Window) fail(err error) {
	w.once.Do(func() {
		w.mu.Lock()
		w.err = err
		w.mu.Unlock()
		close(w.done)
	})
}

func (w *Window) complete() {
	w.once.Do(func() { close(w.done) })
}

// put is one delivery into a window, decoded from either wire.
type put struct {
	id     uint64
	dstOff uint32
	count  uint32
	// routed puts came as MsgBlockTransfer and carry the receiving rank
	// the window checks against its owner.
	routed   bool
	toThread int32
	order    cdr.ByteOrder
	// payload holds the raw element bytes; a window put landing
	// straight off the read buffer has none yet.
	payload []byte
}

// blockPut decodes a routed MsgBlockTransfer body into a put addressed
// to window InvocationID. The payload is the doubles after the CDR
// sequence length, so a sequence length other than Count shows up as
// a payload of the wrong size when the window checks it. The sequence
// must end the body: a parked put keeps the whole body alive but is
// charged only its payload, so trailing bytes would slip past the
// pending byte budget.
func blockPut(order cdr.ByteOrder, body []byte) (put, error) {
	d := cdr.NewDecoder(order, body)
	h, err := giop.DecodeBlockTransferHeader(d)
	if err != nil {
		return put{}, err
	}
	n, err := d.ULong()
	if err != nil {
		return put{}, err
	}
	p := put{id: h.InvocationID, dstOff: h.DstOff, count: h.Count,
		routed: true, toThread: h.ToThread, order: order}
	end := uint64(d.Pos())
	if n > 0 {
		base := (d.Pos() + 7) &^ 7 // doubles align to 8 in the body stream
		end = uint64(base) + 8*uint64(n)
		if end > uint64(len(body)) {
			return put{}, fmt.Errorf("%w: double sequence of %d in a %d-byte block body",
				cdr.ErrTruncated, n, len(body))
		}
		p.payload = body[base:int(end)]
	}
	if end != uint64(len(body)) {
		return put{}, fmt.Errorf("orb: %d trailing bytes after a block's double sequence",
			uint64(len(body))-end)
	}
	return p, nil
}

// admit checks a put against the window before any byte lands and
// reserves its elements against the expected total.
func (w *Window) admit(p put) error {
	if p.routed && p.toThread != w.owner {
		return fmt.Errorf("orb: window %#x: block addressed to thread %d arrived at %d",
			w.id, p.toThread, w.owner)
	}
	if p.routed && len(p.payload) != 8*int(p.count) {
		return fmt.Errorf("orb: window %#x: block count %d, payload %d",
			w.id, p.count, len(p.payload)/8)
	}
	if int64(p.dstOff)+int64(p.count) > int64(len(w.dst)) {
		return fmt.Errorf("orb: window %#x put [%d,%d) exceeds destination of %d elements",
			w.id, p.dstOff, int64(p.dstOff)+int64(p.count), len(w.dst))
	}
	if n := w.claimed.Add(int64(p.count)); n > w.expect {
		return fmt.Errorf("orb: window %#x: %d elements put, %d expected", w.id, n, w.expect)
	}
	return nil
}

// deliver lands a put whose payload is in hand, or fails the window.
func (w *Window) deliver(p put) {
	if err := w.admit(p); err != nil {
		w.fail(err)
		return
	}
	cdr.DecodeDoubles(w.dst[p.dstOff:int64(p.dstOff)+int64(p.count)], p.payload, p.order)
	w.landed(p.count)
}

// landed accounts count admitted elements already written into dst,
// completing the window when the plan total is reached.
func (w *Window) landed(count uint32) {
	w.nbytes.Add(int64(count) * 8)
	if w.onPut != nil {
		w.onPut()
	}
	if w.got.Add(int64(count)) == w.expect {
		w.complete()
	}
}

// pendingPuts is one window's buffered early puts plus the accounting
// the byte budget and TTL sweep need.
type pendingPuts struct {
	puts  []put
	bytes int
	last  time.Time // most recent arrival; staleness is measured from here
}

// blockRouter is a server's window registry: it lands incoming puts in
// their registered windows, buffering early arrivals under a
// block-count and byte budget and reclaiming buffers abandoned past a
// TTL.
type blockRouter struct {
	mu           sync.Mutex
	windows      map[uint64]*Window
	pending      map[uint64]*pendingPuts
	pendingLen   int
	pendingBytes int
	pol          PendingPolicy
}

func newBlockRouter() *blockRouter {
	return &blockRouter{
		windows: make(map[uint64]*Window),
		pending: make(map[uint64]*pendingPuts),
		pol:     DefaultPendingPolicy(),
	}
}

// BlockRouterStats is a point-in-time snapshot of a window registry,
// used by tests and health checks to assert windows are not leaked.
type BlockRouterStats struct {
	// Windows is the number of registered (not yet cancelled)
	// destination windows.
	Windows int
	// Pending is the number of buffered early puts awaiting a window.
	Pending int
	// PendingBytes is the payload bytes those puts hold.
	PendingBytes int
}

func (r *blockRouter) stats() BlockRouterStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return BlockRouterStats{
		Windows:      len(r.windows),
		Pending:      r.pendingLen,
		PendingBytes: r.pendingBytes,
	}
}

// windowFor resolves a put's destination window, if registered.
func (r *blockRouter) windowFor(id uint64) (*Window, bool) {
	r.mu.Lock()
	w, ok := r.windows[id]
	r.mu.Unlock()
	return w, ok
}

// deliver lands a put in its registered window, or parks it under the
// pending budgets until the window registers (or the sweep reclaims
// it). The lookup and the parking are one critical section: a window
// put's fast-path lookup may have missed just before the window
// registered (and flushed an empty pending set), and parking the put
// then would strand it forever. An error means the budgets are
// exhausted; the caller tears the delivering connection down.
func (r *blockRouter) deliver(p put) error {
	r.mu.Lock()
	if w, ok := r.windows[p.id]; ok {
		r.mu.Unlock()
		w.deliver(p)
		return nil
	}
	if r.pendingLen >= r.pol.MaxBlocks {
		r.mu.Unlock()
		return fmt.Errorf("%w: window %#x", ErrTooManyBlocks, p.id)
	}
	if r.pendingBytes+len(p.payload) > r.pol.MaxBytes {
		r.mu.Unlock()
		return fmt.Errorf("%w: window %#x (%d buffered + %d new > %d)",
			ErrPendingBlockBytes, p.id, r.pendingBytes, len(p.payload), r.pol.MaxBytes)
	}
	pe := r.pending[p.id]
	if pe == nil {
		pe = &pendingPuts{}
		r.pending[p.id] = pe
	}
	pe.puts = append(pe.puts, p)
	pe.bytes += len(p.payload)
	pe.last = time.Now()
	r.pendingLen++
	r.pendingBytes += len(p.payload)
	pendingBlockBytes.Add(int64(len(p.payload)))
	r.mu.Unlock()
	return nil
}

// registerWindow installs a destination window owned by rank owner,
// flushing any puts that arrived early. expect is the total element
// count after which the window completes (a non-positive expectation
// completes immediately). The returned cancel removes the
// registration; it must be called on every exit path, success or
// failure, so windows never leak.
func (r *blockRouter) registerWindow(id uint64, owner int, dst []float64, expect int64, onPut func()) (*Window, func(), error) {
	w := &Window{id: id, owner: int32(owner), dst: dst, expect: expect, onPut: onPut,
		done: make(chan struct{})}
	r.mu.Lock()
	if _, dup := r.windows[id]; dup {
		r.mu.Unlock()
		return nil, nil, fmt.Errorf("orb: duplicate window %#x", id)
	}
	r.windows[id] = w
	var early []put
	if pe := r.pending[id]; pe != nil {
		early = pe.puts
		delete(r.pending, id)
		r.pendingLen -= len(pe.puts)
		r.pendingBytes -= pe.bytes
		pendingBlockBytes.Add(-int64(pe.bytes))
	}
	r.mu.Unlock()
	windowsActive.Add(1)
	var cancelled atomic.Bool
	cancel := func() {
		if cancelled.Swap(true) {
			return
		}
		r.mu.Lock()
		delete(r.windows, id)
		r.mu.Unlock()
		windowsActive.Add(-1)
	}
	if expect <= 0 {
		w.complete()
	}
	for _, p := range early {
		w.deliver(p)
	}
	return w, cancel, nil
}

// sweep reclaims every pending buffer whose last arrival is older than
// the TTL (a window that will plainly never register — its sender died
// or gave up), returning the number of puts dropped.
func (r *blockRouter) sweep(now time.Time) int {
	r.mu.Lock()
	var dropped, droppedBytes int
	for id, pe := range r.pending {
		if now.Sub(pe.last) < r.pol.TTL {
			continue
		}
		dropped += len(pe.puts)
		droppedBytes += pe.bytes
		r.pendingLen -= len(pe.puts)
		r.pendingBytes -= pe.bytes
		delete(r.pending, id)
	}
	r.mu.Unlock()
	if droppedBytes > 0 {
		pendingBlockBytes.Add(-int64(droppedBytes))
	}
	if dropped > 0 {
		pendingBlockReclaimed.Add(uint64(dropped))
	}
	return dropped
}
