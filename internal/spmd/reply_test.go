package spmd

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"pardis/internal/cdr"
	"pardis/internal/dist"
	"pardis/internal/dseq"
	"pardis/internal/giop"
	"pardis/internal/ior"
	"pardis/internal/mp"
	"pardis/internal/orb"
	"pardis/internal/rts"
	"pardis/internal/transport"
)

// rankErrs binds an n-thread client to ref and runs fn on every
// thread, returning each rank's error. It fails the test if the
// collective has not finished within the timeout — a wedged rank shows
// up as a failure, not a hung test binary.
func rankErrs(t *testing.T, reg *transport.Registry, n int, method TransferMethod,
	ref *ior.Ref, fn func(b *Binding, th rts.Thread) error) []error {
	t.Helper()
	errs := make([]error, n)
	done := make(chan error, 1)
	go func() {
		done <- mp.Run(n, func(proc *mp.Proc) error {
			th := rts.NewMessagePassing(proc)
			b, err := Bind(context.Background(), BindConfig{
				Thread:         th,
				Registry:       reg,
				Method:         method,
				ListenEndpoint: "inproc:*",
			}, ref)
			if err != nil {
				return err
			}
			defer b.Close()
			errs[th.Rank()] = fn(b, th)
			return nil
		})
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("collective invocation wedged: not every rank returned")
	}
	return errs
}

// scalarEncapsulation is the client's scalar in-argument wire form
// (order flag plus body) for a single long.
func scalarEncapsulation(v int32) []byte {
	e := cdr.NewEncoder(cdr.BigEndian)
	e.PutOctet(byte(cdr.BigEndian))
	inner := cdr.NewEncoderAt(cdr.BigEndian, 1)
	inner.PutLong(v)
	e.PutOctets(inner.Bytes())
	return e.Bytes()
}

// TestReplyBodyRoundTripBothOrders: a reply body written by the
// server's reply writer decodes on the communicator to the same
// scalars and out-arguments whichever byte order the reply travelled
// in — the foreign-order case included — and a body whose out-arguments
// disagree with the call is refused there.
func TestReplyBodyRoundTripBothOrders(t *testing.T) {
	seq := func(n int) *dseq.Doubles {
		s, err := dseq.NewDoubles(n, dist.Block(), 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	args := []DistArg{{Mode: In, Seq: seq(5)}, {Mode: InOut, Seq: seq(3)}, {Mode: Out, Seq: seq(4)}}
	outs := [][]float64{{1.5, -2, 3.25}, {0, 1e300, -1e-300, 42}}
	scal := cdr.NewEncoderAt(cdr.BigEndian, 1)
	scal.PutLong(-7)
	scal.PutString("done")

	var bodies [][]byte
	for _, order := range []cdr.ByteOrder{cdr.BigEndian, cdr.LittleEndian} {
		e := cdr.NewEncoderAt(order, 8)
		replyBody(scal.Bytes(), outs)(e)
		bodies = append(bodies, e.Bytes())

		scalars, got, err := decodeReplyBody(order, e.Bytes(), Centralized, args)
		if err != nil {
			t.Fatalf("%v: %v", order, err)
		}
		d := cdr.NewDecoderAt(cdr.ByteOrder(scalars[0]), scalars[1:], 1)
		if v, err := d.Long(); err != nil || v != -7 {
			t.Fatalf("%v: scalar long = %d, %v", order, v, err)
		}
		if s, err := d.String(); err != nil || s != "done" {
			t.Fatalf("%v: scalar string = %q, %v", order, s, err)
		}
		if len(got) != len(outs) {
			t.Fatalf("%v: %d out-args, want %d", order, len(got), len(outs))
		}
		for i := range outs {
			if fmt.Sprint(got[i]) != fmt.Sprint(outs[i]) {
				t.Fatalf("%v: out-arg %d = %v, want %v", order, i, got[i], outs[i])
			}
		}

		// The same body against calls it does not answer.
		short := []DistArg{args[0], {Mode: InOut, Seq: seq(2)}, args[2]}
		if _, _, err := decodeReplyBody(order, e.Bytes(), Centralized, short); err == nil {
			t.Fatalf("%v: out-arg of the wrong length accepted", order)
		}
		if _, _, err := decodeReplyBody(order, e.Bytes(), Centralized, args[:2]); err == nil {
			t.Fatalf("%v: surplus out-arg accepted", order)
		}
		if _, _, err := decodeReplyBody(order, e.Bytes(), MultiPort, args); err == nil {
			t.Fatalf("%v: centralized out-data accepted on a multi-port call", order)
		}
	}
	if bytes.Equal(bodies[0], bodies[1]) {
		t.Fatal("big- and little-endian bodies are identical: the writer ignored the reply order")
	}
}

// TestFaultReplyMissingOutArg: a server whose reply omits the inout
// out-argument must fail the invocation on every client rank with the
// same ErrRemote — the communicator refuses the reply before the status
// broadcast, so no rank is left in a scatter the communicator never
// feeds.
func TestFaultReplyMissingOutArg(t *testing.T) {
	reg := newReg()
	srv := orb.NewServer(reg)
	defer srv.Close()
	ep, err := srv.Listen("inproc:*")
	if err != nil {
		t.Fatal(err)
	}
	const key = "objects/short-reply"
	srv.Handle(key, func(in *orb.Incoming) {
		if in.Header.Operation == DescribeOperation {
			desc := describeWire{Threads: 1, Ops: map[string]*OpSpec{
				"diffusion": {Args: []ArgSpec{{Mode: InOut, Dist: dist.Block()}}},
			}}
			_ = in.Reply(giop.ReplyOK, desc.encode)
			return
		}
		scal := cdr.NewEncoderAt(cdr.BigEndian, 1)
		scal.PutLong(2)
		_ = in.Reply(giop.ReplyOK, replyBody(scal.Bytes(), nil))
	})
	ref := &ior.Ref{TypeID: "IDL:test_object:1.0", Key: key, Threads: 1, Endpoints: []string{ep}}

	errs := rankErrs(t, reg, 2, Centralized, ref, func(b *Binding, th rts.Thread) error {
		return invokeDiffusion(b, th, 64, 2)
	})
	for r, err := range errs {
		if !errors.Is(err, ErrRemote) {
			t.Fatalf("rank %d: want ErrRemote, got %v", r, err)
		}
		if err.Error() != errs[0].Error() {
			t.Fatalf("rank %d: %q, rank 0: %q", r, err, errs[0])
		}
	}
}

// TestFaultMalformedCentralInlineData: a centralized request whose
// inline data disagrees with the declared length (or is missing) is
// refused with BAD_PARAM before the collective is engaged, and the
// object goes on serving well-formed clients.
func TestFaultMalformedCentralInlineData(t *testing.T) {
	reg := newReg()
	obj := startObject(t, reg, 3, false, diffusionOps)
	defer obj.close()

	cli := orb.NewClient(reg)
	defer cli.Close()
	for _, data := range [][]float64{make([]float64, 299), nil} {
		hdr := giop.RequestHeader{
			InvocationID:     cli.NewInvocationID(),
			ResponseExpected: true,
			ObjectKey:        obj.ref.Key,
			Operation:        "diffusion",
			ThreadCount:      1,
		}
		w := &invocationWire{Method: Centralized, Scalars: scalarEncapsulation(1),
			Args: []*argWire{{Mode: InOut, Length: 300, ClientCounts: []int{300}, Data: data}}}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		rh, order, body, err := cli.Invoke(ctx, obj.ref.Endpoints[0], hdr, w.encode)
		cancel()
		if err != nil {
			t.Fatalf("%d of 300 inline elements: %v", len(data), err)
		}
		if rh.Status != giop.ReplySystemException {
			t.Fatalf("%d of 300 inline elements: reply status %v", len(data), rh.Status)
		}
		ex, err := giop.DecodeSystemException(cdr.NewDecoder(order, body))
		if err != nil || ex.Code != "BAD_PARAM" {
			t.Fatalf("%d of 300 inline elements: exception %v, %v", len(data), ex, err)
		}
	}

	errs := rankErrs(t, reg, 2, Centralized, obj.ref, func(b *Binding, th rts.Thread) error {
		return invokeDiffusion(b, th, 300, 2)
	})
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d after malformed requests: %v", r, err)
		}
	}
}

// TestFaultShortClientEndpoints: a multi-port request whose
// out-argument endpoint list does not name every client rank is
// refused with BAD_PARAM before the collective is engaged, instead of
// shipping a rank's blocks to another rank's port, and the object goes
// on serving well-formed clients.
func TestFaultShortClientEndpoints(t *testing.T) {
	reg := newReg()
	obj := startObject(t, reg, 3, true, func(th rts.Thread) map[string]*Op {
		ops := diffusionOps(th)
		ops["fill"] = &Op{
			Spec:    OpSpec{Args: []ArgSpec{{Mode: Out, Dist: dist.Block()}}},
			Handler: func(*Call) error { return nil },
		}
		return ops
	})
	defer obj.close()

	cli := orb.NewClient(reg)
	defer cli.Close()
	for _, eps := range [][]string{nil, {"inproc:nowhere"}} {
		hdr := giop.RequestHeader{
			InvocationID:     cli.NewInvocationID(),
			ResponseExpected: true,
			ObjectKey:        obj.ref.Key,
			Operation:        "fill",
			ThreadCount:      2,
		}
		w := &invocationWire{Method: MultiPort, Scalars: scalarEncapsulation(0),
			Args: []*argWire{{Mode: Out, Length: 300, ClientCounts: []int{150, 150},
				ClientEndpoints: eps}}}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		rh, order, body, err := cli.Invoke(ctx, obj.ref.Endpoints[0], hdr, w.encode)
		cancel()
		if err != nil {
			t.Fatalf("%d endpoints for 2 ranks: %v", len(eps), err)
		}
		if rh.Status != giop.ReplySystemException {
			t.Fatalf("%d endpoints for 2 ranks: reply status %v", len(eps), rh.Status)
		}
		ex, err := giop.DecodeSystemException(cdr.NewDecoder(order, body))
		if err != nil || ex.Code != "BAD_PARAM" {
			t.Fatalf("%d endpoints for 2 ranks: exception %v, %v", len(eps), ex, err)
		}
	}

	errs := rankErrs(t, reg, 2, MultiPort, obj.ref, func(b *Binding, th rts.Thread) error {
		return invokeDiffusion(b, th, 300, 2)
	})
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d after malformed requests: %v", r, err)
		}
	}
}
