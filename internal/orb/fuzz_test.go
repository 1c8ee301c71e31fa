package orb

import (
	"math"
	"testing"

	"pardis/internal/cdr"
	"pardis/internal/giop"
	"pardis/internal/transport"
)

// FuzzDataPlaneReceive feeds arbitrary MsgBlockTransfer and
// MsgWindowPut frames through a server connection at a registered
// window framed by guard elements, before or after the window
// registers. Whatever the frame, nothing may panic, no element outside
// the put's [DstOff, DstOff+Count) may change, and the pending buffer
// may never hold — or keep alive — more than its byte budget.
func FuzzDataPlaneReceive(f *testing.F) {
	f.Add(byte(0), false, true, uint32(0), uint32(4), int32(0), uint32(4), make([]byte, 32))
	f.Add(byte(0), true, true, uint32(2), uint32(4), int32(0), uint32(4), make([]byte, 32))
	f.Add(byte(0), false, true, uint32(6), uint32(4), int32(1), uint32(3), make([]byte, 24))
	f.Add(byte(1), false, true, uint32(4), uint32(4), int32(0), uint32(0), make([]byte, 32))
	f.Add(byte(1), true, false, uint32(0), uint32(1<<20), int32(0), uint32(0), make([]byte, 8))
	f.Add(byte(4), false, true, uint32(7), uint32(0), int32(0), uint32(0), make([]byte, 64))
	f.Add(byte(2), false, true, uint32(0), uint32(0), int32(0), uint32(0), []byte("garbage body"))
	f.Add(byte(0), true, true, uint32(0), uint32(1), int32(0), uint32(1), make([]byte, 8192))
	f.Fuzz(func(t *testing.T, kind byte, early, toWindow bool, dstOff, count uint32,
		toThread int32, seqLen uint32, tail []byte) {
		const (
			n        = 8    // window elements
			guard    = 4    // guard elements on each side
			maxBytes = 4096 // pending byte budget
			key      = uint64(0x4200)
		)
		const sentinel = 0x4242424242424242 // bits of a finite double
		written := func(v float64) bool { return math.Float64bits(v) != sentinel }
		buf := make([]float64, guard+n+guard)
		for i := range buf {
			buf[i] = math.Float64frombits(sentinel)
		}
		dst := buf[guard : guard+n : guard+n]

		reg := transport.NewRegistry()
		inproc := transport.NewInproc()
		reg.Register(inproc)
		srv := NewServer(reg, WithPendingPolicy(PendingPolicy{MaxBlocks: 16, MaxBytes: maxBytes}))
		defer srv.Close()
		ep, err := srv.Listen("inproc:*")
		if err != nil {
			t.Fatal(err)
		}
		conn, err := reg.Dial(ep)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		fr := giop.NewFrameReader(conn)
		// drain waits until the read loop has handled every frame written
		// before it: the locate reply comes back in order, or the loop
		// tore the connection down.
		drain := func() {
			e := cdr.NewEncoder(cdr.NativeOrder)
			h := giop.LocateRequestHeader{RequestID: 1, ObjectKey: "x"}
			h.Encode(e)
			if giop.WriteMessage(conn, cdr.NativeOrder, giop.MsgLocateRequest, e.Bytes()) == nil {
				_, _ = fr.ReadFrame()
			}
		}

		id := key
		if !toWindow {
			id = key + 1
		}
		order := cdr.ByteOrder(kind>>4) & 1
		msg, body := frame(kind, order, id, dstOff, count, toThread, seqLen, tail)
		// The range the frame actually names, as the receiver decodes it.
		dstOff, count = 0, 0
		d := cdr.NewDecoder(order, body)
		if msg == giop.MsgBlockTransfer {
			if h, err := giop.DecodeBlockTransferHeader(d); err == nil {
				dstOff, count = h.DstOff, h.Count
			}
		} else if h, err := giop.DecodeWindowPutHeader(d); err == nil {
			dstOff, count = h.DstOff, h.Count
		}

		register := func() (*Window, func()) {
			win, cancel, err := srv.RegisterWindow(key, 0, dst, n, nil)
			if err != nil {
				t.Fatal(err)
			}
			return win, cancel
		}
		var cancel func()
		if !early {
			_, cancel = register()
		}
		_ = giop.WriteMessage(conn, order, msg, body)
		drain()
		// What parked puts keep alive, not just what they are charged:
		// a payload slice pins its frame body to the end.
		retained := 0
		srv.blocks.mu.Lock()
		for _, pe := range srv.blocks.pending {
			for _, p := range pe.puts {
				retained += cap(p.payload)
			}
		}
		srv.blocks.mu.Unlock()
		if retained > maxBytes {
			t.Fatalf("parked puts retain %d bytes, over budget %d", retained, maxBytes)
		}
		if early {
			_, cancel = register()
		}
		defer cancel()

		for i := 0; i < guard; i++ {
			if written(buf[i]) || written(buf[guard+n+i]) {
				t.Fatalf("guard element written: %v", buf)
			}
		}
		for i := range dst {
			in := uint64(i) >= uint64(dstOff) && uint64(i) < uint64(dstOff)+uint64(count)
			if !in && written(dst[i]) {
				t.Fatalf("element %d outside put [%d,%d) written: %v", i, dstOff, uint64(dstOff)+uint64(count), dst)
			}
		}
		if st := srv.BlockStats(); st.PendingBytes > maxBytes {
			t.Fatalf("pending bytes %d over budget %d", st.PendingBytes, maxBytes)
		}
	})
}

// frame builds one data-plane frame body from fuzz fields. kind&3
// selects a routed block (0), a window put (1) or a raw body of either
// type (2, 3); kind&4 makes a window put's Count match its payload.
func frame(kind byte, order cdr.ByteOrder, id uint64, dstOff, count uint32,
	toThread int32, seqLen uint32, tail []byte) (giop.MsgType, []byte) {
	e := cdr.NewEncoder(order)
	switch kind & 3 {
	case 0:
		h := giop.BlockTransferHeader{InvocationID: id, ToThread: toThread, DstOff: dstOff, Count: count}
		h.Encode(e)
		e.PutULong(seqLen)
		body := e.Bytes()
		for len(body)%8 != 0 {
			body = append(body, 0)
		}
		return giop.MsgBlockTransfer, append(body, tail...)
	case 1:
		if kind&4 != 0 {
			count = uint32(len(tail) / 8)
			tail = tail[:len(tail)/8*8]
		}
		h := giop.WindowPutHeader{WindowID: id, DstOff: dstOff, Count: count}
		h.Encode(e)
		return giop.MsgWindowPut, append(e.Bytes(), tail...)
	case 2:
		return giop.MsgBlockTransfer, tail
	default:
		return giop.MsgWindowPut, tail
	}
}
