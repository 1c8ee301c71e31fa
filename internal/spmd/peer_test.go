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
	"pardis/internal/mp"
	"pardis/internal/rts"
	"pardis/internal/transport"
)

// TestPeerTransferEndToEnd pins the peer data plane's happy path: with
// both sides capable (the default), the binding negotiates peer mode,
// the transfer moves as window puts, and neither side leaks a window.
func TestPeerTransferEndToEnd(t *testing.T) {
	reg := newReg()
	obj := startObject(t, reg, 3, true, diffusionOps)
	defer obj.close()
	before := peerBlocksTotal.Value()
	runClient(t, reg, 2, MultiPort, obj.ref, func(b *Binding, th rts.Thread) error {
		if !b.peer {
			return fmt.Errorf("capable endpoint did not negotiate peer windows")
		}
		if err := invokeDiffusion(b, th, 600, 2); err != nil {
			return err
		}
		if st := b.BlockStats(); st.Windows != 0 {
			return fmt.Errorf("rank %d: client leak: %+v", th.Rank(), st)
		}
		return nil
	})
	if got := peerBlocksTotal.Value(); got == before {
		t.Fatal("no window puts counted — the transfer did not take the peer plane")
	}
	for rank, o := range obj.threadObjects() {
		if o == nil || o.srv == nil {
			continue
		}
		if st := o.BlockStats(); st.Windows != 0 {
			t.Fatalf("server thread %d leaked windows: %+v", rank, st)
		}
	}
}

// TestPeerFallbackToRoutedServer binds a peer-capable client to an
// object that hides its PeerWindows capability, as a 1.0 object does:
// the describe does not advertise it, the client must fall back to the
// routed wire (counted under reason="endpoint"), and the invocation
// still succeeds.
func TestPeerFallbackToRoutedServer(t *testing.T) {
	reg := newReg()
	obj := startObjectCfg(t, reg, 3, true, diffusionOps, func(cfg *ObjectConfig) {
		cfg.routedOnly = true
	})
	defer obj.close()
	before := peerFallbackEndpoint.Value()
	runClient(t, reg, 2, MultiPort, obj.ref, func(b *Binding, th rts.Thread) error {
		if b.peer {
			return fmt.Errorf("negotiated peer windows against a routed-only endpoint")
		}
		return invokeDiffusion(b, th, 600, 1)
	})
	if got := peerFallbackEndpoint.Value(); got == before {
		t.Fatal("endpoint fallback not counted")
	}
}

// TestPeerWireTrailingFlagCompat pins the interop encoding: the peer
// capability travels as a trailing optional field, so a routed
// invocation (and a non-advertising describe) stays byte-identical to
// the pre-peer wire, and decoders treat the missing field as false.
func TestPeerWireTrailingFlagCompat(t *testing.T) {
	inv := &invocationWire{
		Method:  MultiPort,
		Scalars: []byte{1, 2, 3},
		Args: []*argWire{{
			Mode: In, Length: 10,
			ClientCounts:    []int{5, 5},
			ClientEndpoints: []string{"inproc:a", "inproc:b"},
		}},
	}
	encode := func(w *invocationWire) []byte {
		e := cdr.NewEncoder(cdr.BigEndian)
		w.encode(e)
		return append([]byte(nil), e.Bytes()...)
	}
	legacy := encode(inv)
	inv.PeerWindows = true
	flagged := encode(inv)
	if !bytes.Equal(legacy, flagged[:len(flagged)-1]) {
		t.Fatal("peer flag is not a pure trailing addition to the invocation wire")
	}
	if len(flagged) != len(legacy)+1 {
		t.Fatalf("peer flag added %d bytes, want 1", len(flagged)-len(legacy))
	}
	got, err := decodeInvocationWire(cdr.NewDecoder(cdr.BigEndian, legacy))
	if err != nil {
		t.Fatal(err)
	}
	if got.PeerWindows {
		t.Fatal("legacy invocation decoded with peer windows set")
	}
	got, err = decodeInvocationWire(cdr.NewDecoder(cdr.BigEndian, flagged))
	if err != nil {
		t.Fatal(err)
	}
	if !got.PeerWindows {
		t.Fatal("flagged invocation decoded without peer windows")
	}

	desc := &describeWire{
		Threads: 2, MultiPort: true,
		Ops: map[string]*OpSpec{"op": {Args: []ArgSpec{{Mode: InOut, Dist: dist.Block()}}}},
	}
	e := cdr.NewEncoder(cdr.BigEndian)
	desc.encode(e)
	legacyDesc := append([]byte(nil), e.Bytes()...)
	desc.PeerWindows = true
	e = cdr.NewEncoder(cdr.BigEndian)
	desc.encode(e)
	flaggedDesc := append([]byte(nil), e.Bytes()...)
	if !bytes.Equal(legacyDesc, flaggedDesc[:len(flaggedDesc)-1]) {
		t.Fatal("peer flag is not a pure trailing addition to the describe wire")
	}
	gotDesc, err := decodeDescribeWire(cdr.NewDecoder(cdr.BigEndian, legacyDesc))
	if err != nil {
		t.Fatal(err)
	}
	if gotDesc.PeerWindows {
		t.Fatal("legacy describe decoded with peer windows set")
	}
	gotDesc, err = decodeDescribeWire(cdr.NewDecoder(cdr.BigEndian, flaggedDesc))
	if err != nil {
		t.Fatal(err)
	}
	if !gotDesc.PeerWindows {
		t.Fatal("flagged describe decoded without peer windows")
	}
}

// TestFaultCutPeerWindowStream is TestFaultCutBlockStream on the peer
// data plane: one client rank's direct window-put stream dies
// mid-transfer. Every healthy rank must fail the invocation with
// ErrPartialFailure naming the cut rank, nothing deadlocks, and both
// sides come out with zero registered windows, sinks, or pending puts.
func TestFaultCutPeerWindowStream(t *testing.T) {
	inproc := transport.NewInproc()
	okReg := transport.NewRegistry()
	okReg.Register(inproc)
	cut := transport.NewFaulty(inproc, transport.FaultPlan{
		Seed: 11, Cut: 1, CutAfter: 8 << 10,
	})
	cutReg := transport.NewRegistry()
	cutReg.Register(cutDialTransport{listen: inproc, dial: cut})

	obj := startObject(t, okReg, 3, true, diffusionOps)

	clientErr := mp.Run(3, func(proc *mp.Proc) error {
		th := rts.NewMessagePassing(proc)
		reg := okReg
		if th.Rank() == 1 {
			reg = cutReg
		}
		b, err := Bind(context.Background(), BindConfig{
			Thread: th, Registry: reg, Method: MultiPort, ListenEndpoint: "inproc:*",
		}, obj.ref)
		if err != nil {
			return err
		}
		defer b.Close()
		if !b.peer {
			return fmt.Errorf("rank %d: binding did not negotiate the peer plane", th.Rank())
		}
		// 30000 doubles: every rank streams 80 KB of window puts to its
		// server thread; rank 1's connection dies after 8 KB.
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
			return fmt.Errorf("rank %d: invocation deadlocked on the cut put stream", th.Rank())
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
			return fmt.Errorf("rank %d: client leak after failure: %+v", th.Rank(), st)
		}
		return nil
	})
	if clientErr != nil {
		t.Fatal(clientErr)
	}

	// The server thread whose sender died is parked on a window that
	// will never fill; Close must unwind it on every rank, and the
	// deferred cancels must leave no window registered.
	obj.close()
	for i := 0; i < 3; i++ {
		select {
		case <-obj.donech:
		case <-time.After(20 * time.Second):
			t.Fatal("a server thread did not unwind after Close")
		}
	}
	for rank, o := range obj.threadObjects() {
		if o == nil || o.srv == nil {
			continue
		}
		if st := o.BlockStats(); st.Windows != 0 {
			t.Fatalf("server thread %d leaked after cut: %+v", rank, st)
		}
	}
	if st := cut.Stats(); st.CutConns == 0 {
		t.Fatal("fault plan injected no cut — the test exercised nothing")
	}
}
