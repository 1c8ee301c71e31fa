// Parallel SPMD data plane: the shared machinery both sides of a
// multi-port transfer use to ship and land distributed-argument blocks.
//
// Sending: sendPlan fans a thread's share of a transfer plan out to the
// destination threads with a bounded in-flight window, after splitting
// oversized blocks into pipelined chunks (dist.Chunk), so the encode of
// chunk N overlaps the write of chunk N-1 and transfers to different
// ranks ride different connections simultaneously. One per-chunk send
// function picks the wire: window puts when the receiving side
// advertised the PeerWindows capability, routed block frames (the 1.0
// wire, byte-identical to the legacy serial path) otherwise. Chunks
// stay under the pooled-encoder retention cap, so the encode path
// reuses pooled buffers instead of allocating multi-megabyte one-offs.
//
// Receiving: every receiver registers its destination slice as an
// orb.Window, which lands both wires straight into place on the
// delivering connection's read goroutine, counting elements rather
// than messages, so chunks may arrive out of order, interleaved across
// senders, and concurrently. Safety argument: the transfer plan
// partitions the destination index space, every chunk carries its own
// disjoint [DstOff, DstOff+Count) range (checked before it lands), and
// completion is the element count reaching the planned total — so no
// ordering between chunks is ever required.
package spmd

import (
	"sync"
	"sync/atomic"
	"time"

	"pardis/internal/cdr"
	"pardis/internal/dist"
	"pardis/internal/giop"
	"pardis/internal/orb"
	"pardis/internal/telemetry"
	"pardis/internal/tune"
)

// Transfer is the multi-port data plane's transfer policy, carried by
// BindConfig (in-argument sends) and ObjectConfig (out-argument
// sends). The zero value is the static default: a window of
// orb.DefaultStripeWidth() sends, 256 KiB chunks, the ORB's default
// stripes, and no tuning.
type Transfer struct {
	// Window bounds how many block sends a thread keeps in flight per
	// transfer (0 = orb.DefaultStripeWidth(); 1 or negative = serial).
	Window int
	// ChunkBytes is the payload size above which a block is split into
	// pipelined chunks (0 = 256 KiB, negative = chunking disabled).
	ChunkBytes int
	// Stripes caps how many connections the thread's ORB client may
	// open per endpoint (<= 0 = orb.DefaultStripeWidth()). An explicit
	// pin wins over the tuner's stripe recommendation.
	Stripes int
	// AutoTune enables the self-tuning transport: every transfer's
	// bytes/seconds feed the process-wide tuner (AutoTuner), which
	// re-resolves the chunk, window and stripe knobs before each
	// transfer once the path has enough samples; until then the static
	// values apply. A binding keys its path by the reference's first
	// endpoint and probes its RTT at bind time; an object keys it by
	// the invoking client's first receive endpoint. All threads of a
	// binding or object must pass the same value.
	AutoTune bool
}

// defaultChunkBytes is the static chunk threshold: it keeps chunks
// inside the pooled-encoder retention cap.
const defaultChunkBytes = 256 << 10

// Resolve returns t with its defaults filled in: Window >= 1,
// ChunkBytes > 0 (or negative when chunking is disabled) and
// Stripes >= 1.
func (t Transfer) Resolve() Transfer {
	if t.Window == 0 {
		t.Window = orb.DefaultStripeWidth()
	}
	t.Window = max(t.Window, 1)
	if t.ChunkBytes == 0 {
		t.ChunkBytes = defaultChunkBytes
	}
	if t.Stripes <= 0 {
		t.Stripes = orb.DefaultStripeWidth()
	}
	return t
}

// AutoTuner is the process-wide path estimator self-tuning bindings
// and objects share. Sharing one tuner means every binding to the same
// endpoint benefits from every other binding's samples.
var AutoTuner = tune.New(tune.Config{})

// xferPolicy is a resolved Transfer: the engine both sides' sendBlocks
// run.
type xferPolicy struct {
	window     int
	chunkElems int // per-chunk float64 cap, 0 = chunking disabled
	stripes    int // explicit pin, 0 = ORB default
	autoTune   bool
}

func newXferPolicy(t Transfer) xferPolicy {
	r := t.Resolve()
	p := xferPolicy{window: r.Window, stripes: max(t.Stripes, 0), autoTune: t.AutoTune}
	if r.ChunkBytes > 0 {
		p.chunkElems = max(r.ChunkBytes/8, 1)
	}
	return p
}

// clientOptions returns the ORB client options that carry the policy's
// stripes: the explicit pin, or with tuning on a dynamic cap that lets
// the client grow past the static width, still lazily, up to the
// tuner's stripe recommendation for pathKey ("" = for each destination
// endpoint's own path).
func (p xferPolicy) clientOptions(pathKey string) []orb.ClientOption {
	if p.stripes > 0 {
		return []orb.ClientOption{orb.WithStripes(p.stripes)}
	}
	if !p.autoTune {
		return nil
	}
	return []orb.ClientOption{orb.WithStripeCap(func(ep string) int {
		if pathKey != "" {
			ep = pathKey
		}
		if rec, ok := AutoTuner.Recommend(ep); ok {
			return rec.Stripes
		}
		return 0
	})}
}

// ship sends rank's share of plan through send (see sendPlan) and
// times it into hist. With tuning on, the window and chunk come from
// the tuner's recommendation for pathKey once it has one, and a
// successful transfer's rate is recorded against pathKey. It returns
// the payload bytes shipped.
func (p xferPolicy) ship(pathKey string, hist *telemetry.Histogram, rank int, plan []dist.Transfer, local []float64, send chunkSender) (uint64, error) {
	window, chunkElems := p.window, p.chunkElems
	if p.autoTune {
		if rec, ok := AutoTuner.Recommend(pathKey); ok {
			window, chunkElems = rec.XferWindow, max(rec.XferChunkBytes/8, 1)
		}
	}
	t := time.Now()
	n, err := sendPlan(rank, plan, local, window, chunkElems, send)
	elapsed := time.Since(t)
	hist.ObserveDuration(elapsed)
	if p.autoTune && err == nil {
		AutoTuner.Record(pathKey, n, elapsed)
	}
	return n, err
}

// Interned once: the data-plane counters are touched per chunk.
var (
	blocksInflight = telemetry.Default.Gauge("pardis_spmd_blocks_inflight")
	chunkBytesHist = telemetry.Default.HistogramWithBuckets("pardis_spmd_chunk_bytes",
		[]float64{1 << 10, 4 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20, 4 << 20})
	// peerBlocksTotal counts window-put chunks shipped over the peer
	// data plane (the direct counterpart of routed block transfers).
	peerBlocksTotal = telemetry.Default.Counter("pardis_spmd_peer_blocks_total")
	// peerFallbackEndpoint counts multi-port bindings that took the
	// routed wire because the object did not advertise the capability.
	peerFallbackEndpoint = telemetry.Default.Counter("pardis_spmd_peer_fallback_total", "reason", "endpoint")
)

// blockSender abstracts orb.Client.SendBlock for the routed wire.
type blockSender interface {
	SendBlock(endpoint string, hdr giop.BlockTransferHeader, payload func(*cdr.Encoder)) (int, error)
}

// chunkSender ships one chunk of a transfer plan — tr names the
// destination rank and range, blk holds its elements, last marks the
// sender's final chunk to that rank — and returns the payload bytes it
// put on the wire.
type chunkSender func(tr dist.Transfer, last bool, blk []float64) (int, error)

// blockChunks ships chunks as routed MsgBlockTransfer frames addressed
// to window key, the wire a receiver that did not advertise
// PeerWindows understands.
func blockChunks(oc blockSender, key uint64, argIdx uint32, rank int, endpointFor func(int) string) chunkSender {
	return func(tr dist.Transfer, last bool, blk []float64) (int, error) {
		return oc.SendBlock(endpointFor(tr.To), giop.BlockTransferHeader{
			InvocationID: key,
			ArgIndex:     argIdx,
			FromThread:   int32(rank),
			ToThread:     int32(tr.To),
			DstOff:       uint32(tr.DstOff),
			Count:        uint32(tr.Count),
			Last:         last,
		}, func(e *cdr.Encoder) { e.PutDoubleSeq(blk) })
	}
}

// chunksFor picks the wire for one argument's transfer: one-sided
// window puts when the receiving side advertised PeerWindows (no CDR
// sequence framing and, in native order, no payload copy on either
// side), routed block frames otherwise. Both address the window the
// receiver registered under BlockSinkKey(inv, argIdx).
func chunksFor(oc *orb.Client, peer bool, inv uint64, argIdx uint32, rank int, endpointFor func(int) string) (chunkSender, error) {
	key, err := giop.BlockSinkKey(inv, argIdx)
	if err != nil {
		return nil, err
	}
	if !peer {
		return blockChunks(oc, key, argIdx, rank, endpointFor), nil
	}
	return func(tr dist.Transfer, last bool, blk []float64) (int, error) {
		peerBlocksTotal.Inc()
		return oc.PutWindow(endpointFor(tr.To), giop.WindowPutHeader{
			WindowID:   key,
			FromThread: int32(rank),
			DstOff:     uint32(tr.DstOff),
			Count:      uint32(tr.Count),
			Last:       last,
		}, blk)
	}, nil
}

// sendPlan ships rank's share of a transfer plan for one argument
// through send, chunked and windowed. It returns the total payload
// bytes shipped.
//
// With window <= 1 and chunkElems == 0 the sends are issued serially
// in plan order — byte-identical wire traffic to the legacy serial
// path (pinned by TestSerialWireIdentical).
func sendPlan(rank int, plan []dist.Transfer, local []float64, window, chunkElems int, send chunkSender) (uint64, error) {
	mine := dist.PlanFor(plan, rank)
	if len(mine) == 0 {
		return 0, nil
	}
	for _, tr := range mine {
		if err := giop.CheckBlockRange(tr.DstOff, tr.Count); err != nil {
			return 0, err
		}
	}
	mine = dist.Chunk(mine, chunkElems)
	lastIdx := make(map[int]int, len(mine))
	for idx, tr := range mine {
		lastIdx[tr.To] = idx
	}
	ship := func(idx int, tr dist.Transfer) (int, error) {
		n, err := send(tr, lastIdx[tr.To] == idx, local[tr.SrcOff:tr.SrcOff+tr.Count])
		chunkBytesHist.Observe(float64(n))
		return n, err
	}

	if window <= 1 || len(mine) == 1 {
		var total uint64
		for idx, tr := range mine {
			blocksInflight.Inc()
			n, err := ship(idx, tr)
			blocksInflight.Dec()
			if err != nil {
				return total, err
			}
			total += uint64(n)
		}
		return total, nil
	}

	var (
		sem      = make(chan struct{}, window)
		wg       sync.WaitGroup
		total    atomic.Uint64
		failed   atomic.Bool
		errMu    sync.Mutex
		firstErr error
	)
	for idx, tr := range mine {
		if failed.Load() {
			break
		}
		sem <- struct{}{}
		wg.Add(1)
		blocksInflight.Inc()
		go func(idx int, tr dist.Transfer) {
			defer func() {
				blocksInflight.Dec()
				<-sem
				wg.Done()
			}()
			n, err := ship(idx, tr)
			if err != nil {
				if failed.CompareAndSwap(false, true) {
					errMu.Lock()
					firstErr = err
					errMu.Unlock()
				}
				return
			}
			total.Add(uint64(n))
		}(idx, tr)
	}
	wg.Wait()
	errMu.Lock()
	err := firstErr
	errMu.Unlock()
	return total.Load(), err
}

// waitWindow awaits a registered destination window: until completion
// (or window failure), context cancellation, close, or the sending
// client's lease expiry (nil channels never fire).
func waitWindow(w *orb.Window, ctx contextDoner, closed, expired <-chan struct{}) error {
	var ctxDone <-chan struct{}
	if ctx != nil {
		ctxDone = ctx.Done()
	}
	select {
	case <-w.Done():
		return w.Err()
	case <-ctxDone:
		return ctx.Err()
	case <-closed:
		return ErrClosed
	case <-expired:
		return ErrLeaseExpired
	}
}

// contextDoner is the subset of context.Context waitWindow needs.
type contextDoner interface {
	Done() <-chan struct{}
	Err() error
}

// planElemsTo sums the elements a plan addresses to one receiver.
func planElemsTo(plan []dist.Transfer, rank int) int {
	n := 0
	for _, tr := range plan {
		if tr.To == rank {
			n += tr.Count
		}
	}
	return n
}
