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
	"runtime"
	"sync"
	"sync/atomic"

	"pardis/internal/cdr"
	"pardis/internal/dist"
	"pardis/internal/giop"
	"pardis/internal/orb"
	"pardis/internal/telemetry"
	"pardis/internal/tune"
)

// Package-wide data-plane defaults, overridable per binding/object via
// BindConfig/ObjectConfig and process-wide via the -xfer-window /
// -xfer-chunk flags of pardisd and pardis-bench.
var (
	// DefaultXferWindow is the default bound on concurrently in-flight
	// block sends per transfer (0 = min(4, GOMAXPROCS)).
	DefaultXferWindow = 0
	// DefaultXferChunkBytes is the default payload-size threshold above
	// which a block is split into pipelined chunks (<0 disables
	// chunking). 256 KiB keeps chunks inside the pooled-encoder
	// retention cap.
	DefaultXferChunkBytes = 256 << 10
	// DefaultAutoTune resolves the per-endpoint self-tuning transport
	// (AutoTune knobs on BindConfig/ObjectConfig; the pardisd and
	// pardis-bench -auto-tune flags flip it process-wide). Off by
	// default: tuning changes knobs between transfers, which A/B
	// benchmarks and wire-identical tests must be able to rely on not
	// happening.
	DefaultAutoTune = false
)

// AutoTuner is the process-wide path estimator self-tuning bindings
// and objects share: transfer engines feed it per-transfer
// bytes/seconds (plus the bind-time RTT probe) and re-resolve their
// chunk, window and stripe knobs from it before every transfer.
// Sharing one tuner means every binding to the same endpoint benefits
// from every other binding's samples.
var AutoTuner = tune.New(tune.Config{})

// resolveAutoTune maps an AutoTune knob to the effective wish:
// 0 = package default, negative = off.
func resolveAutoTune(v int) bool {
	if v == 0 {
		return DefaultAutoTune
	}
	return v > 0
}

// ResolvedXferWindow reports the effective process-wide default
// transfer window (what a zero XferWindow config resolves to).
func ResolvedXferWindow() int { return resolveWindow(0) }

// ResolvedXferChunkBytes reports the effective process-wide default
// chunk threshold in bytes (0 when chunking is disabled).
func ResolvedXferChunkBytes() int { return resolveChunkElems(0) * 8 }

// tunedKnobs re-resolves (window, chunkElems) from the shared tuner
// for one transfer, falling back to the statically resolved values
// until the path has enough samples.
func tunedKnobs(pathKey string, window, chunkElems int) (int, int) {
	rec, ok := AutoTuner.Recommend(pathKey)
	if !ok {
		return window, chunkElems
	}
	return rec.XferWindow, max(rec.XferChunkBytes/8, 1)
}

// resolveWindow maps a config value to an effective send window:
// 0 = package default, negative = serial (window 1).
func resolveWindow(w int) int {
	if w == 0 {
		w = DefaultXferWindow
	}
	if w == 0 {
		w = min(4, runtime.GOMAXPROCS(0))
	}
	return max(w, 1)
}

// resolveChunkElems maps a config byte threshold to a per-chunk
// element cap for float64 payloads: 0 = package default, negative =
// chunking disabled.
func resolveChunkElems(bytes int) int {
	if bytes == 0 {
		bytes = DefaultXferChunkBytes
	}
	if bytes < 0 {
		return 0
	}
	return max(bytes/8, 1)
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
