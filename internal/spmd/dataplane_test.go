package spmd

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"pardis/internal/cdr"
	"pardis/internal/dist"
	"pardis/internal/dseq"
	"pardis/internal/giop"
	"pardis/internal/mp"
	"pardis/internal/orb"
	"pardis/internal/rts"
	"pardis/internal/transport"
)

// recordingSender captures SendBlock traffic exactly as the ORB
// client would encode it (header then payload on one CDR stream).
type recordingSender struct {
	endpoints []string
	frames    [][]byte
}

func (r *recordingSender) SendBlock(ep string, hdr giop.BlockTransferHeader,
	payload func(*cdr.Encoder)) (int, error) {
	e := cdr.NewEncoder(cdr.BigEndian)
	hdr.Encode(e)
	hdrLen := e.Len()
	if payload != nil {
		payload(e)
	}
	r.endpoints = append(r.endpoints, ep)
	r.frames = append(r.frames, append([]byte(nil), e.Bytes()...))
	return e.Len() - hdrLen, nil
}

// legacySendBlocks is the pre-data-plane serial send loop, retained
// verbatim as the reference encoding.
func legacySendBlocks(oc *recordingSender, inv uint64, argIdx uint32, rank int,
	plan []dist.Transfer, local []float64, endpointFor func(int) string) {
	mine := dist.PlanFor(plan, rank)
	lastIdx := make(map[int]int)
	for idx, tr := range mine {
		lastIdx[tr.To] = idx
	}
	for idx, tr := range mine {
		h := giop.BlockTransferHeader{
			InvocationID: inv<<8 | uint64(argIdx),
			ArgIndex:     argIdx,
			FromThread:   int32(rank),
			ToThread:     int32(tr.To),
			DstOff:       uint32(tr.DstOff),
			Count:        uint32(tr.Count),
			Last:         lastIdx[tr.To] == idx,
		}
		blk := local[tr.SrcOff : tr.SrcOff+tr.Count]
		_, _ = oc.SendBlock(endpointFor(tr.To), h, func(e *cdr.Encoder) { e.PutDoubleSeq(blk) })
	}
}

// TestSerialWireIdentical pins the serial-semantics guarantee: with
// window=1 and chunking disabled, sendPlan over the routed wire
// produces exactly the
// frames (order, headers, payload bytes) the legacy serial loop did.
func TestSerialWireIdentical(t *testing.T) {
	// Misaligned layouts so several transfers cross rank boundaries.
	src, err := dist.FromCounts([]int{7, 13, 5})
	if err != nil {
		t.Fatal(err)
	}
	dst, err := dist.FromCounts([]int{10, 10, 5})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := dist.Plan(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	epFor := func(to int) string { return fmt.Sprintf("inproc:t%d", to) }
	const inv, argIdx = uint64(0xABCDE), uint32(1)
	key, err := giop.BlockSinkKey(inv, argIdx)
	if err != nil {
		t.Fatal(err)
	}
	for rank := 0; rank < 3; rank++ {
		local := make([]float64, src.Count(rank))
		for i := range local {
			local[i] = float64(src.Lo(rank) + i)
		}
		legacy := &recordingSender{}
		legacySendBlocks(legacy, inv, argIdx, rank, plan, local, epFor)
		got := &recordingSender{}
		if _, err := sendPlan(rank, plan, local, 1, 0, blockChunks(got, key, argIdx, rank, epFor)); err != nil {
			t.Fatal(err)
		}
		if len(got.frames) != len(legacy.frames) {
			t.Fatalf("rank %d: %d frames, legacy %d", rank, len(got.frames), len(legacy.frames))
		}
		for i := range got.frames {
			if got.endpoints[i] != legacy.endpoints[i] {
				t.Fatalf("rank %d frame %d: endpoint %q, legacy %q",
					rank, i, got.endpoints[i], legacy.endpoints[i])
			}
			if !bytes.Equal(got.frames[i], legacy.frames[i]) {
				t.Fatalf("rank %d frame %d: wire bytes differ", rank, i)
			}
		}
	}
}

// TestChunkedSendCoversPlan: with chunking and a concurrent window,
// the chunk set must tile exactly the legacy transfer set (same
// destinations, disjoint offsets, same total elements), with every
// chunk's payload under the threshold.
func TestChunkedSendCoversPlan(t *testing.T) {
	src, err := dist.FromCounts([]int{1000, 1000})
	if err != nil {
		t.Fatal(err)
	}
	dst, err := dist.FromCounts([]int{500, 1500})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := dist.Plan(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	local := make([]float64, 1000)
	rec := &recordingSender{}
	// Note: recordingSender is not safe for concurrent use, so pin
	// window=1 here; chunking is what is under test.
	const chunkElems = 128
	n, err := sendPlan(0, plan, local, 1, chunkElems,
		blockChunks(rec, 7<<8, 0, 0, func(int) string { return "inproc:x" }))
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("no bytes accounted")
	}
	covered := make(map[int]bool)
	for _, frame := range rec.frames {
		d := cdr.NewDecoder(cdr.BigEndian, frame)
		h, err := giop.DecodeBlockTransferHeader(d)
		if err != nil {
			t.Fatal(err)
		}
		if h.Count > chunkElems {
			t.Fatalf("chunk of %d elements exceeds threshold %d", h.Count, chunkElems)
		}
		for i := int(h.DstOff); i < int(h.DstOff)+int(h.Count); i++ {
			key := int(h.ToThread)<<24 | i
			if covered[key] {
				t.Fatalf("destination (%d, %d) covered twice", h.ToThread, i)
			}
			covered[key] = true
		}
	}
	want := 0
	for _, tr := range dist.PlanFor(plan, 0) {
		want += tr.Count
	}
	if len(covered) != want {
		t.Fatalf("chunks cover %d destination elements, plan has %d", len(covered), want)
	}
}

// TestCrossOrderBlockAssembly: a little-endian client and a
// big-endian client ship interleaved routed chunks of one argument to
// the same window, which must land both orders straight into the
// destination, out of order, from concurrent connections.
func TestCrossOrderBlockAssembly(t *testing.T) {
	reg := newReg()
	srv := orb.NewServer(reg)
	ep, err := srv.Listen("inproc:*")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	const n = 1024
	local := make([]float64, n)
	key, err := giop.BlockSinkKey(99, 0)
	if err != nil {
		t.Fatal(err)
	}
	win, cancel, err := srv.RegisterWindow(key, 0, local, n, nil)
	if err != nil {
		t.Fatal(err)
	}

	le := orb.NewClient(reg, orb.WithByteOrder(cdr.LittleEndian))
	be := orb.NewClient(reg, orb.WithByteOrder(cdr.BigEndian))
	defer le.Close()
	defer be.Close()

	want := make([]float64, n)
	for i := range want {
		want[i] = float64(i) * 1.5
	}
	send := func(cli *orb.Client, from int32, off, count int) {
		h := giop.BlockTransferHeader{
			InvocationID: key, ArgIndex: 0, FromThread: from, ToThread: 0,
			DstOff: uint32(off), Count: uint32(count), Last: true,
		}
		blk := want[off : off+count]
		if _, err := cli.SendBlock(ep, h, func(e *cdr.Encoder) { e.PutDoubleSeq(blk) }); err != nil {
			t.Error(err)
		}
	}
	// Interleave the two senders, highest offsets first.
	send(le, 1, 768, 256)
	send(be, 0, 512, 256)
	send(le, 1, 256, 256)
	send(be, 0, 0, 256)

	ctx, cancelCtx := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancelCtx()
	if err := waitWindow(win, ctx, nil, nil); err != nil {
		t.Fatal(err)
	}
	cancel()
	for i := range want {
		if local[i] != want[i] {
			t.Fatalf("element %d = %v, want %v", i, local[i], want[i])
		}
	}
	if st := srv.BlockStats(); st.Windows != 0 {
		t.Fatalf("window leak: %+v", st)
	}
}

// TestChunkedTransferEndToEnd runs the diffusion invocation with a
// tiny chunk threshold and a concurrent window on both sides, so in-
// and out-transfers exercise chunked, windowed, out-of-order
// assembly, and verifies element-exact results.
func TestChunkedTransferEndToEnd(t *testing.T) {
	reg := newReg()
	obj := startObjectCfg(t, reg, 3, true, diffusionOps, func(cfg *ObjectConfig) {
		cfg.Transfer = Transfer{Window: 3, ChunkBytes: 1 << 10} // 128 doubles per chunk
	})
	defer obj.close()
	err := mp.Run(2, func(proc *mp.Proc) error {
		th := rts.NewMessagePassing(proc)
		b, err := Bind(context.Background(), BindConfig{
			Thread: th, Registry: reg, Method: MultiPort,
			ListenEndpoint: "inproc:*",
			Transfer:       Transfer{Window: 4, ChunkBytes: 1 << 10},
		}, obj.ref)
		if err != nil {
			return err
		}
		defer b.Close()
		// 4000 doubles: each client rank ships 2000 (16 chunks), and
		// the uneven 2->3 rank mapping splits blocks across threads.
		if err := invokeDiffusion(b, th, 4000, 2); err != nil {
			return err
		}
		if st := b.BlockStats(); st.Windows != 0 {
			return fmt.Errorf("rank %d: window leak: %+v", th.Rank(), st)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// cutDialTransport serves "inproc" endpoints but routes dials through
// a fault-injecting wrapper, so only this process's outbound block
// streams are cut — listeners stay clean and keep their scheme.
type cutDialTransport struct {
	listen transport.Transport // plain shared inproc
	dial   transport.Transport // faulty-wrapped view of the same inproc
}

func (c cutDialTransport) Scheme() string { return c.listen.Scheme() }
func (c cutDialTransport) Listen(a string) (transport.Listener, error) {
	return c.listen.Listen(a)
}
func (c cutDialTransport) Dial(a string) (transport.Conn, error) { return c.dial.Dial(a) }

// TestFaultCutBlockStream cuts one of several concurrent in-block
// streams mid-transfer: the cut rank sees its transport error, every
// other client rank fails the same invocation with ErrPartialFailure,
// no thread deadlocks, and neither side leaks a window. Pinned to the
// routed wire (the object hides its PeerWindows capability, as a 1.0
// object would) so the routed path keeps fault coverage now that peer
// windows are the default; the peer twin is
// TestFaultCutPeerWindowStream.
func TestFaultCutBlockStream(t *testing.T) {
	inproc := transport.NewInproc()
	okReg := transport.NewRegistry()
	okReg.Register(inproc)
	cut := transport.NewFaulty(inproc, transport.FaultPlan{
		Seed: 7, Cut: 1, CutAfter: 8 << 10,
	})
	cutReg := transport.NewRegistry()
	cutReg.Register(cutDialTransport{listen: inproc, dial: cut})

	// AutoTune rides along so the chaos sweep covers the self-tuning
	// transport under faults: a failed send must not feed the tuner, and
	// tuning must not change the failure verdict or leak windows.
	obj := startObjectCfg(t, okReg, 3, true, diffusionOps, func(cfg *ObjectConfig) {
		cfg.routedOnly = true
		cfg.Transfer.AutoTune = true
	})

	clientErr := mp.Run(3, func(proc *mp.Proc) error {
		th := rts.NewMessagePassing(proc)
		reg := okReg
		if th.Rank() == 1 {
			reg = cutReg
		}
		b, err := Bind(context.Background(), BindConfig{
			Thread: th, Registry: reg, Method: MultiPort, ListenEndpoint: "inproc:*",
			Transfer: Transfer{AutoTune: true},
		}, obj.ref)
		if err != nil {
			return err
		}
		defer b.Close()
		// 30000 doubles: every rank streams 80 KB to its server
		// thread concurrently; rank 1's connection dies after 8 KB.
		seq, err := dseq.NewDoubles(30000, dist.Block(), th.Size(), th.Rank())
		if err != nil {
			return err
		}
		done := make(chan error, 1)
		go func() {
			done <- b.Invoke(context.Background(), &CallSpec{
				Operation: "diffusion",
				Scalars:   func(e *cdr.Encoder) { e.PutLong(1) },
				Args:      []DistArg{{Mode: InOut, Seq: seq}},
			})
		}()
		var ierr error
		select {
		case ierr = <-done:
		case <-time.After(20 * time.Second):
			return fmt.Errorf("rank %d: invocation deadlocked on the cut stream", th.Rank())
		}
		if ierr == nil {
			return fmt.Errorf("rank %d: invocation succeeded despite the cut", th.Rank())
		}
		if th.Rank() != 1 {
			if !errors.Is(ierr, ErrPartialFailure) {
				return fmt.Errorf("rank %d: want ErrPartialFailure, got %v", th.Rank(), ierr)
			}
			if !strings.Contains(ierr.Error(), "thread 1") {
				return fmt.Errorf("rank %d: error does not name the cut rank: %v", th.Rank(), ierr)
			}
		}
		if st := b.BlockStats(); st.Windows != 0 {
			return fmt.Errorf("rank %d: client window leak after failure: %+v", th.Rank(), st)
		}
		return nil
	})
	if clientErr != nil {
		t.Fatal(clientErr)
	}

	// The server thread whose sender died is parked waiting for
	// elements that will never arrive; Close must unwind it on every
	// rank (not just the communicator).
	obj.close()
	for i := 0; i < 3; i++ {
		select {
		case <-obj.donech:
		case <-time.After(20 * time.Second):
			t.Fatal("a server thread did not unwind after Close")
		}
	}
	for rank, o := range obj.threadObjects() {
		if o == nil {
			continue
		}
		if st := o.BlockStats(); st.Windows != 0 {
			t.Fatalf("server thread %d leaked windows: %+v", rank, st)
		}
	}
	if st := cut.Stats(); st.CutConns == 0 {
		t.Fatal("fault plan injected no cut — the test exercised nothing")
	}
}
