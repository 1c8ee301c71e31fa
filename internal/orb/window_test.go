package orb

import (
	"context"
	"runtime"
	"strings"
	"testing"
	"time"

	"pardis/internal/cdr"
	"pardis/internal/giop"
	"pardis/internal/transport"
)

func windowKey(t *testing.T, inv uint64, argIdx uint32) uint64 {
	t.Helper()
	key, err := giop.BlockSinkKey(inv, argIdx)
	if err != nil {
		t.Fatal(err)
	}
	return key
}

// routedPut encodes a routed block frame body exactly as
// Client.SendBlock does and decodes it the way the server read loop
// does.
func routedPut(t testing.TB, order cdr.ByteOrder, h giop.BlockTransferHeader, vals []float64) put {
	t.Helper()
	e := cdr.NewEncoder(order)
	h.Encode(e)
	e.PutDoubleSeq(vals)
	p, err := blockPut(order, e.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func waitDone(t *testing.T, w *Window) {
	t.Helper()
	select {
	case <-w.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("window did not complete")
	}
}

func TestWindowPutEndToEnd(t *testing.T) {
	cli, srv, ep := newPair(t)
	const n = 512
	dst := make([]float64, n)
	key := windowKey(t, 21, 0)
	win, cancel, err := srv.RegisterWindow(key, 0, dst, n, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()

	want := make([]float64, n)
	for i := range want {
		want[i] = float64(i) * 0.5
	}
	// Two puts, highest offset first: landing is element-counted, not
	// ordered.
	for _, off := range []int{n / 2, 0} {
		h := giop.WindowPutHeader{WindowID: key, FromThread: 3, DstOff: uint32(off), Last: off == 0}
		nb, err := cli.PutWindow(ep, h, want[off:off+n/2])
		if err != nil {
			t.Fatal(err)
		}
		if nb != n/2*8 {
			t.Fatalf("put accounted %d bytes, want %d", nb, n/2*8)
		}
	}
	waitDone(t, win)
	if err := win.Err(); err != nil {
		t.Fatal(err)
	}
	if win.Bytes() != n*8 {
		t.Fatalf("window landed %d bytes, want %d", win.Bytes(), n*8)
	}
	for i := range want {
		if dst[i] != want[i] {
			t.Fatalf("element %d = %v, want %v", i, dst[i], want[i])
		}
	}
	cancel()
	if st := srv.BlockStats(); st.Windows != 0 || st.Pending != 0 {
		t.Fatalf("window leak after cancel: %+v", st)
	}
}

func TestWindowPutBeforeRegistrationBuffered(t *testing.T) {
	cli, srv, ep := newPair(t)
	const n = 64
	key := windowKey(t, 22, 1)
	want := make([]float64, n)
	for i := range want {
		want[i] = float64(i + 1)
	}
	h := giop.WindowPutHeader{WindowID: key, FromThread: 0, DstOff: 0, Last: true}
	if _, err := cli.PutWindow(ep, h, want); err != nil {
		t.Fatal(err)
	}
	// The put raced ahead of registration; wait until the router has
	// parked it under the pending budgets.
	deadline := time.Now().Add(10 * time.Second)
	for srv.BlockStats().Pending == 0 {
		if time.Now().After(deadline) {
			t.Fatal("early put never buffered")
		}
		time.Sleep(time.Millisecond)
	}
	dst := make([]float64, n)
	win, cancel, err := srv.RegisterWindow(key, 0, dst, n, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()
	waitDone(t, win)
	if err := win.Err(); err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if dst[i] != want[i] {
			t.Fatalf("element %d = %v, want %v", i, dst[i], want[i])
		}
	}
	if st := srv.BlockStats(); st.Pending != 0 || st.PendingBytes != 0 {
		t.Fatalf("flushed put still accounted as pending: %+v", st)
	}
}

// TestWindowRegistrationRaceLandsPut pins the race the read loop cannot
// avoid: its window lookup misses, the window registers (flushing an
// empty pending set), and only then does the read loop try to buffer
// the put. deliver must land the put into the now-registered
// window instead of parking it forever.
func TestWindowRegistrationRaceLandsPut(t *testing.T) {
	_, srv, _ := newPair(t)
	const n = 16
	key := windowKey(t, 23, 0)
	dst := make([]float64, n)
	win, cancel, err := srv.RegisterWindow(key, 0, dst, n, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()

	want := make([]float64, n)
	for i := range want {
		want[i] = float64(i) * 3
	}
	e := cdr.NewEncoder(cdr.NativeOrder)
	e.PutDoubles(want)
	p := put{id: key, count: n, order: cdr.NativeOrder, payload: e.Bytes()}
	if err := srv.blocks.deliver(p); err != nil {
		t.Fatal(err)
	}
	waitDone(t, win)
	if err := win.Err(); err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if dst[i] != want[i] {
			t.Fatalf("element %d = %v, want %v", i, dst[i], want[i])
		}
	}
	if st := srv.BlockStats(); st.Pending != 0 {
		t.Fatalf("raced put parked as pending instead of landing: %+v", st)
	}
}

func TestWindowRangeViolationPoisonsWindowNotConnection(t *testing.T) {
	cli, srv, ep := newPair(t)
	const n = 32
	dst := make([]float64, n)
	key := windowKey(t, 24, 0)
	win, cancel, err := srv.RegisterWindow(key, 0, dst, n, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()

	h := giop.WindowPutHeader{WindowID: key, FromThread: 0, DstOff: n, Last: true}
	if _, err := cli.PutWindow(ep, h, make([]float64, 8)); err != nil {
		t.Fatal(err)
	}
	waitDone(t, win)
	if err := win.Err(); err == nil || !strings.Contains(err.Error(), "exceeds destination") {
		t.Fatalf("want range violation, got %v", err)
	}
	// The violation poisons the window, not the stream: the same
	// connection must still answer requests.
	if _, _, _, err := cli.Invoke(context.Background(), ep,
		requestHeader(cli, "echo", "op"),
		func(e *cdr.Encoder) { e.PutString("still-alive") }); err != nil {
		t.Fatalf("connection unusable after poisoned window: %v", err)
	}
}

func TestDuplicateWindowRejected(t *testing.T) {
	_, srv, _ := newPair(t)
	key := windowKey(t, 25, 0)
	_, cancel, err := srv.RegisterWindow(key, 0, make([]float64, 4), 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()
	if _, _, err := srv.RegisterWindow(key, 0, make([]float64, 4), 4, nil); err == nil {
		t.Fatal("duplicate window registration accepted")
	}
	cancel()
	cancel() // idempotent
	if st := srv.BlockStats(); st.Windows != 0 {
		t.Fatalf("window survives cancel: %+v", st)
	}
}

func TestWindowPutCrossOrder(t *testing.T) {
	reg := transport.NewRegistry()
	reg.Register(transport.NewInproc())
	srv := NewServer(reg)
	ep, err := srv.Listen("inproc:*")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	foreign := cdr.BigEndian
	if cdr.NativeOrder == cdr.BigEndian {
		foreign = cdr.LittleEndian
	}
	cli := NewClient(reg, WithByteOrder(foreign))
	defer cli.Close()

	const n = 100_000 // several swap chunks on the cross-order land path
	dst := make([]float64, n)
	key := windowKey(t, 26, 0)
	win, cancel, err := srv.RegisterWindow(key, 0, dst, n, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()
	want := make([]float64, n)
	for i := range want {
		want[i] = float64(i) / 7
	}
	h := giop.WindowPutHeader{WindowID: key, FromThread: 0, DstOff: 0, Last: true}
	if _, err := cli.PutWindow(ep, h, want); err != nil {
		t.Fatal(err)
	}
	waitDone(t, win)
	if err := win.Err(); err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if dst[i] != want[i] {
			t.Fatalf("element %d = %v, want %v", i, dst[i], want[i])
		}
	}
}

func TestWindowOnPutRunsPerLandedPut(t *testing.T) {
	cli, srv, ep := newPair(t)
	const n = 8
	dst := make([]float64, 2*n)
	key := windowKey(t, 27, 0)
	ch := make(chan struct{}, 4)
	win, cancel, err := srv.RegisterWindow(key, 0, dst, 2*n, func() {
		ch <- struct{}{}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()
	blk := make([]float64, n)
	for _, off := range []uint32{0, n} {
		h := giop.WindowPutHeader{WindowID: key, FromThread: 0, DstOff: off, Last: off == n}
		if _, err := cli.PutWindow(ep, h, blk); err != nil {
			t.Fatal(err)
		}
	}
	waitDone(t, win)
	for i := 0; i < 2; i++ {
		select {
		case <-ch:
		case <-time.After(10 * time.Second):
			t.Fatal("onPut did not run for each landed put")
		}
	}
}

// TestDefaultOrderIsNativeZeroCopy pins the zero-copy default: clients
// and servers marshal in the host's byte order unless told otherwise,
// so a default window put gather-writes its payload straight from the
// caller's slice and lands straight in the window, allocating nothing
// per put beyond small fixed overhead. A default fixed to one order
// would send every put through a swapped copy on a big-endian or
// little-endian host alike (over 1 MiB per put here) and fail the
// bound.
func TestDefaultOrderIsNativeZeroCopy(t *testing.T) {
	reg := transport.NewRegistry()
	reg.Register(transport.NewInproc())
	srv := NewServer(reg)
	defer srv.Close()
	ep, err := srv.Listen("inproc:*")
	if err != nil {
		t.Fatal(err)
	}
	cli := NewClient(reg)
	defer cli.Close()
	if got := cli.Order(); got != cdr.NativeOrder {
		t.Fatalf("NewClient order = %v, want native %v", got, cdr.NativeOrder)
	}
	if got := srv.Order(); got != cdr.NativeOrder {
		t.Fatalf("NewServer order = %v, want native %v", got, cdr.NativeOrder)
	}

	const n = 128 << 10
	payload := make([]float64, n)
	dst := make([]float64, n)
	hdr := giop.WindowPutHeader{WindowID: 1, Last: true}
	put := func() {
		win, cancel, err := srv.RegisterWindow(1, 0, dst, n, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer cancel()
		if _, err := cli.PutWindow(ep, hdr, payload); err != nil {
			t.Fatal(err)
		}
		waitDone(t, win)
		if err := win.Err(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		put() // dial the connection and warm the pools
	}
	const rounds = 16
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < rounds; i++ {
		put()
	}
	runtime.ReadMemStats(&after)
	if perPut := (after.TotalAlloc - before.TotalAlloc) / rounds; perPut > 4<<10 {
		t.Fatalf("default-order put of %d doubles allocated %d B per call, want under 4 KiB", n, perPut)
	}
}

// TestWindowOverCountFails: puts that land more elements than the
// window expects fail it, even when each is in range — overlapping
// puts must never complete a window whose other elements were never
// written.
func TestWindowOverCountFails(t *testing.T) {
	cli, srv, ep := newPair(t)
	const n = 8
	dst := make([]float64, n)
	key := windowKey(t, 28, 0)
	win, cancel, err := srv.RegisterWindow(key, 0, dst, n, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()
	blk := []float64{1, 1, 1, 1, 1, 1}
	for i := 0; i < 2; i++ {
		h := giop.WindowPutHeader{WindowID: key, FromThread: 0, DstOff: 0}
		if _, err := cli.PutWindow(ep, h, blk); err != nil {
			t.Fatal(err)
		}
	}
	waitDone(t, win)
	if err := win.Err(); err == nil || !strings.Contains(err.Error(), "expected") {
		t.Fatalf("over-counted window reported %v, dst=%v", err, dst)
	}
}

// TestRoutedBlockMisaddressedFailsWindow: a routed block whose ToThread
// is not the window's owner rank fails the window without writing.
func TestRoutedBlockMisaddressedFailsWindow(t *testing.T) {
	cli, srv, ep := newPair(t)
	dst := make([]float64, 4)
	key := windowKey(t, 29, 0)
	win, cancel, err := srv.RegisterWindow(key, 1, dst, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()
	h := giop.BlockTransferHeader{InvocationID: key, ToThread: 2, Count: 4, Last: true}
	if _, err := cli.SendBlock(ep, h, func(e *cdr.Encoder) { e.PutDoubleSeq([]float64{1, 2, 3, 4}) }); err != nil {
		t.Fatal(err)
	}
	waitDone(t, win)
	if err := win.Err(); err == nil || !strings.Contains(err.Error(), "addressed to thread 2") {
		t.Fatalf("misaddressed block reported %v", err)
	}
	if dst[0] != 0 {
		t.Fatalf("misaddressed block landed: %v", dst)
	}
}

// TestRoutedBlockCountMismatchFailsWindow: a routed block whose CDR
// sequence length differs from its header Count fails the window — in
// both directions, and also when the block was parked before the
// window registered.
func TestRoutedBlockCountMismatchFailsWindow(t *testing.T) {
	for _, tc := range []struct {
		name  string
		count uint32
		vals  []float64
		early bool
	}{
		{"short-seq", 4, []float64{1, 2}, false},
		{"long-seq", 2, []float64{1, 2, 3, 4}, false},
		{"parked", 4, []float64{1, 2}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, srv, _ := newPair(t)
			dst := make([]float64, 8)
			key := windowKey(t, 30, 0)
			h := giop.BlockTransferHeader{InvocationID: key, Count: tc.count, Last: true}
			p := routedPut(t, cdr.NativeOrder, h, tc.vals)
			if tc.early {
				if err := srv.blocks.deliver(p); err != nil {
					t.Fatal(err)
				}
			}
			win, cancel, err := srv.RegisterWindow(key, 0, dst, 8, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer cancel()
			if !tc.early {
				if err := srv.blocks.deliver(p); err != nil {
					t.Fatal(err)
				}
			}
			waitDone(t, win)
			if err := win.Err(); err == nil || !strings.Contains(err.Error(), "block count") {
				t.Fatalf("count mismatch reported %v", err)
			}
			if dst[0] != 0 {
				t.Fatalf("mismatched block landed: %v", dst)
			}
		})
	}
}
