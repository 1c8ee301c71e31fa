package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"pardis/internal/cdr"
	"pardis/internal/dist"
	"pardis/internal/dseq"
	"pardis/internal/ior"
	"pardis/internal/mp"
	"pardis/internal/rts"
	"pardis/internal/spmd"
)

// SPMD workload shape: n client ranks invoke an m-rank object; n != m
// forces block-intersection transfer planning.
const (
	spmdClientRanks = 2
	spmdServerRanks = 4
	spmdInLen       = 1 << 20 // doubles in the spmd-mp-in argument (8 MiB)
	spmdInOutLen    = 1 << 17 // doubles in the spmd-central-inout argument (1 MiB)
)

// splitmix64 is the seeded value generator shared by client and
// server: both sides derive the expected element values from it.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// bulkValue is element i's value in the mp-in sequence; opValue is the
// value the op with sequence k writes at a server block boundary i.
// Both are integers below 2^20, exact in a float64.
func bulkValue(seed int64, i int) float64 {
	return float64(splitmix64(uint64(seed)<<32^uint64(i)) >> 44)
}

func opValue(seed int64, k uint64, i int) float64 {
	return float64(splitmix64(uint64(seed)^k<<32^uint64(i)^0x5bd1e995) >> 44)
}

// spmdStack is a running spmd-mp-in or spmd-central-inout workload:
// m server ranks serving one exported object, and n client rank
// goroutines that own their bindings and run commands in lockstep.
type spmdStack struct {
	cfg      runConfig
	tr       *tracer
	inout    bool
	length   int
	srvWorld *mp.World
	objs     []*spmd.Object
	serveWG  sync.WaitGroup
	cliWorld *mp.World
	ranks    []*spmdRank
	cliWG    sync.WaitGroup
	srvRange dist.Layout
	// mismatched holds the invocation sequences whose server-side
	// check failed.
	mu         sync.Mutex
	mismatched map[uint64]bool
	sink       [spmdServerRanks]float64
	seq        uint64 // next invocation sequence, advanced by the lockstep leader
	ls         *lockstep
	lat        hist // reused by every loop
}

type spmdRank struct {
	st    *spmdStack
	rank  int
	b     *spmd.Binding
	data  *dseq.Doubles
	init  []float64 // inout: the seeded initial values of the local block
	cum   float64   // inout: sum of deltas applied since init
	spec  *spmd.CallSpec
	k     uint64
	delta float64
	cmds  chan spmdCmd
}

type spmdCmd struct {
	ops  int           // run this many collective ops, or
	d    time.Duration // run until d has elapsed
	done chan<- struct{}
}

// lockstep is the client ranks' per-op meeting point, in benchmark
// memory rather than the RTS so it adds no traffic to the layers
// measured: the last rank to finish an op records it and decides for
// all ranks whether to run another.
type lockstep struct {
	mu        sync.Mutex
	cond      *sync.Cond
	arrived   int
	gen       uint64
	stop      bool
	start     [spmdClientRanks]time.Duration
	end       [spmdClientRanks]time.Duration
	wrong     bool
	err       error
	phaseBase time.Time
	want      int // ops to run (0 = until dur)
	dur       time.Duration
	p         phase
	payload   int64
	onOp      func(ls *lockstep)
}

func (l *lockstep) arrive(rank int, s, e time.Duration, wrong bool, err error) (stop bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.start[rank], l.end[rank] = s, e
	l.wrong = l.wrong || wrong
	if err != nil {
		l.err = err
	}
	l.arrived++
	if l.arrived < spmdClientRanks {
		for gen := l.gen; gen == l.gen; {
			l.cond.Wait()
		}
		return l.stop
	}
	first, last := l.start[0], l.end[0]
	for r := 1; r < spmdClientRanks; r++ {
		first, last = min(first, l.start[r]), max(last, l.end[r])
	}
	l.p.lat.add(int64(last - first))
	l.p.ops++
	l.p.payloadBytes += l.payload
	switch {
	case l.err != nil:
		l.p.errored++
		l.p.lastErr = l.err
	case l.wrong:
		l.p.wrong++
	}
	if l.onOp != nil {
		l.onOp(l)
	}
	l.wrong, l.err = false, nil
	l.stop = (l.want > 0 && int(l.p.ops) >= l.want) || (l.want == 0 && last >= l.dur)
	l.arrived = 0
	l.gen++
	l.cond.Broadcast()
	return l.stop
}

func setupSPMDIn(cfg runConfig, tr *tracer) (stack, error) {
	return setupSPMD(cfg, tr, false)
}

func setupSPMDInOut(cfg runConfig, tr *tracer) (stack, error) {
	return setupSPMD(cfg, tr, true)
}

func setupSPMD(cfg runConfig, tr *tracer, inout bool) (stack, error) {
	st := &spmdStack{cfg: cfg, tr: tr, inout: inout, length: spmdInLen, mismatched: make(map[uint64]bool)}
	if inout {
		st.length = spmdInOutLen
	}
	st.srvRange = dist.Block().MustApply(st.length, spmdServerRanks)
	st.ls = &lockstep{}
	st.lat = newHist()
	st.ls.cond = sync.NewCond(&st.ls.mu)
	st.ls.payload = 8 * int64(st.length)
	if inout {
		st.ls.payload *= 2
	}
	if tr != nil {
		st.ls.onOp = st.traceOp
	}
	reg := newRegistry(tr)

	method, mode, op := spmd.MultiPort, spmd.In, "sink"
	if inout {
		method, mode, op = spmd.Centralized, spmd.InOut, "add"
	}
	// Server ranks: Export is collective, so every rank exports from
	// its own goroutine and then serves until the object is closed.
	st.srvWorld = mp.MustWorld(spmdServerRanks)
	st.objs = make([]*spmd.Object, spmdServerRanks)
	refs := make(chan *ior.Ref, 1)
	errs := make(chan error, spmdServerRanks)
	for r := 0; r < spmdServerRanks; r++ {
		var th rts.Thread = rts.NewMessagePassing(st.srvWorld.Rank(r))
		if tr != nil {
			th = wrapThread(th, sideServer, &tr.rts)
		}
		st.serveWG.Add(1)
		go func(rank int, th rts.Thread) {
			defer st.serveWG.Done()
			obj, err := spmd.Export(spmd.ObjectConfig{
				Thread:         th,
				Registry:       reg,
				ListenEndpoint: loopback,
				Key:            "objects/perfbench",
				TypeID:         "IDL:perfbench/Dist:1.0",
				MultiPort:      method == spmd.MultiPort,
				Ops: map[string]*spmd.Op{op: {
					Spec:    spmd.OpSpec{Args: []spmd.ArgSpec{{Mode: mode, Dist: dist.Block()}}},
					Handler: st.handler(rank),
				}},
			})
			if err != nil {
				errs <- err
				return
			}
			st.objs[rank] = obj
			errs <- nil
			if rank == 0 {
				refs <- obj.Ref()
			}
			_ = obj.Serve(context.Background())
		}(r, th)
	}
	for r := 0; r < spmdServerRanks; r++ {
		if err := <-errs; err != nil {
			st.close()
			return nil, fmt.Errorf("export: %w", err)
		}
	}
	ref := <-refs

	// Client ranks bind collectively, then wait for commands.
	st.cliWorld = mp.MustWorld(spmdClientRanks)
	bound := make(chan error, spmdClientRanks)
	for r := 0; r < spmdClientRanks; r++ {
		var th rts.Thread = rts.NewMessagePassing(st.cliWorld.Rank(r))
		if tr != nil {
			th = wrapThread(th, sideClient, &tr.rts)
		}
		cr := &spmdRank{st: st, rank: r, cmds: make(chan spmdCmd)}
		st.ranks = append(st.ranks, cr)
		st.cliWG.Add(1)
		go func(th rts.Thread) {
			defer st.cliWG.Done()
			b, err := spmd.Bind(context.Background(), spmd.BindConfig{
				Thread: th, Registry: reg, Method: method, ListenEndpoint: loopback,
			}, ref)
			if err == nil {
				cr.b = b
				err = cr.initData(op, mode)
			}
			bound <- err
			if err != nil {
				return
			}
			cr.serve()
		}(th)
	}
	var bindErr error
	for r := 0; r < spmdClientRanks; r++ {
		if err := <-bound; err != nil {
			bindErr = err
		}
	}
	if bindErr != nil {
		st.close()
		return nil, fmt.Errorf("bind: %w", bindErr)
	}
	return st, nil
}

// handler is one server rank's operation. mp-in checks the block's
// length and its boundary values for this invocation, then reads the
// whole block; inout adds the invocation's delta to every element.
// With cfg.wrong the mp-in check expects the wrong values and the
// inout add is off by one.
func (st *spmdStack) handler(rank int) spmd.Handler {
	return func(call *spmd.Call) error {
		k, err := call.Scalars.ULongLong()
		if err != nil {
			return err
		}
		var slot *spmdSlot
		if st.tr != nil {
			if slot = st.tr.slot(k); slot != nil {
				slot.in[rank].Store(st.tr.now())
			}
		}
		seq := call.Args[0]
		data := seq.LocalData()
		if st.inout {
			delta, err := call.Scalars.Double()
			if err != nil {
				return err
			}
			if st.cfg.wrong {
				delta++
			}
			for i := range data {
				data[i] += delta
			}
		} else {
			lo := seq.Lo()
			want := k
			if st.cfg.wrong {
				want++
			}
			if len(data) != st.srvRange.Count(rank) || lo != st.srvRange.Lo(rank) ||
				data[0] != opValue(st.cfg.seed, want, lo) ||
				data[len(data)-1] != opValue(st.cfg.seed, want, lo+len(data)-1) {
				st.mu.Lock()
				st.mismatched[k] = true
				st.mu.Unlock()
				return fmt.Errorf("rank %d: block [%d,+%d) does not hold invocation %d's values", rank, lo, len(data), k)
			}
			var sum float64
			for _, v := range data {
				sum += v
			}
			st.sink[rank] = sum
		}
		if slot != nil {
			slot.out[rank].Store(st.tr.now())
		}
		return nil
	}
}

// initData allocates the rank's block and its call spec.
func (cr *spmdRank) initData(op string, mode spmd.ArgMode) error {
	st := cr.st
	seq, err := dseq.NewDoubles(st.length, dist.Block(), spmdClientRanks, cr.rank)
	if err != nil {
		return err
	}
	cr.data = seq
	local, lo := seq.LocalData(), seq.Lo()
	for i := range local {
		local[i] = bulkValue(st.cfg.seed, lo+i)
	}
	if st.inout {
		cr.init = append([]float64(nil), local...)
	}
	cr.spec = &spmd.CallSpec{
		Operation: op,
		Scalars:   cr.scalars,
		Args:      []spmd.DistArg{{Mode: mode, Seq: seq}},
	}
	return nil
}

func (cr *spmdRank) scalars(e *cdr.Encoder) {
	e.PutULongLong(cr.k)
	if cr.st.inout {
		e.PutDouble(cr.delta)
	}
}

// prepare sets the inputs of invocation k: for mp-in, the values at
// every server block boundary inside this rank's block; for inout, the
// seeded delta.
func (cr *spmdRank) prepare(k uint64) {
	st := cr.st
	cr.k = k
	if st.inout {
		cr.delta = float64(1 + splitmix64(uint64(st.cfg.seed)^k)%1000)
		return
	}
	local, lo := cr.data.LocalData(), cr.data.Lo()
	hi := lo + len(local)
	for s := 0; s < spmdServerRanks; s++ {
		for _, i := range [2]int{st.srvRange.Lo(s), st.srvRange.Hi(s) - 1} {
			if i >= lo && i < hi {
				local[i-lo] = opValue(st.cfg.seed, k, i)
			}
		}
	}
}

// check verifies the returned inout block; after any mismatch or
// failed invocation it restores the seeded values so the next op is
// checked on its own.
func (cr *spmdRank) check(err error) (wrong bool) {
	if !cr.st.inout {
		return false
	}
	local := cr.data.LocalData()
	if err == nil {
		want := cr.cum + cr.delta
		for i, v := range local {
			if v != cr.init[i]+want {
				wrong = true
				break
			}
		}
		if !wrong {
			cr.cum = want
			return false
		}
	}
	copy(local, cr.init)
	cr.cum = 0
	return wrong
}

func (cr *spmdRank) serve() {
	st := cr.st
	ctx := context.Background()
	for cmd := range cr.cmds {
		base := st.ls.phaseBase
		for {
			k := st.seq + uint64(st.ls.p.ops) // identical on every rank between ops
			cr.prepare(k)
			s := time.Since(base)
			err := cr.b.Invoke(ctx, cr.spec)
			e := time.Since(base)
			wrong := cr.check(err)
			if st.ls.arrive(cr.rank, s, e, wrong, err) {
				break
			}
		}
		cmd.done <- struct{}{}
	}
}

// loop runs one lockstep phase on every client rank.
func (st *spmdStack) loop(d time.Duration, n int) phase {
	st.lat.reset()
	st.ls.p = phase{lat: st.lat}
	st.ls.want, st.ls.dur = n, d
	st.ls.phaseBase = time.Now()
	done := make(chan struct{}, len(st.ranks))
	for _, cr := range st.ranks {
		cr.cmds <- spmdCmd{ops: n, d: d, done: done}
	}
	for range st.ranks {
		<-done
	}
	p := st.ls.p
	p.elapsed = time.Since(st.ls.phaseBase)
	st.seq += uint64(p.ops)
	st.mu.Lock()
	p.serverWrong = int64(len(st.mismatched))
	st.mismatched = make(map[uint64]bool)
	st.mu.Unlock()
	return p
}

// spmdWarmOps is the warm-up length: enough collective invocations
// for lazy connection-stripe growth to finish before timing.
const spmdWarmOps = 10

func (st *spmdStack) warm() error {
	p := st.loop(0, spmdWarmOps)
	if p.errored > 0 || p.wrong > 0 || p.serverWrong > 0 {
		return fmt.Errorf("warm-up: %d errored, %d wrong of %d: %v", p.errored, p.wrong+p.serverWrong, p.ops, p.lastErr)
	}
	return nil
}

func (st *spmdStack) run(d time.Duration) phase { return st.loop(d, 0) }

func (st *spmdStack) admission() (int, int) { return 0, 0 }

func (st *spmdStack) spmdBytes() (out, in uint64) {
	for _, cr := range st.ranks {
		s := cr.b.Stats()
		out += s.BytesOut
		in += s.BytesIn
	}
	return out, in
}

// traceOp derives the collective legs of the op the lockstep leader
// just recorded; it runs under the lockstep lock.
func (st *spmdStack) traceOp(l *lockstep) {
	k := st.seq + uint64(l.p.ops) - 1
	slot := st.tr.slot(k)
	if slot == nil {
		return
	}
	// Client times are relative to the phase base; convert to the
	// tracer clock.
	off := int64(l.phaseBase.Sub(st.tr.base))
	firstStart, lastStart := int64(l.start[0])+off, int64(l.start[0])+off
	firstEnd, lastEnd := int64(l.end[0])+off, int64(l.end[0])+off
	for r := 1; r < spmdClientRanks; r++ {
		s, e := int64(l.start[r])+off, int64(l.end[r])+off
		firstStart, lastStart = min(firstStart, s), max(lastStart, s)
		firstEnd, lastEnd = min(firstEnd, e), max(lastEnd, e)
	}
	firstIn, lastIn := slot.in[0].Load(), slot.in[0].Load()
	lastOut, handler := slot.out[0].Load(), slot.out[0].Load()-slot.in[0].Load()
	for r := 1; r < spmdServerRanks; r++ {
		in, out := slot.in[r].Load(), slot.out[r].Load()
		firstIn, lastIn = min(firstIn, in), max(lastIn, in)
		lastOut, handler = max(lastOut, out), max(handler, out-in)
	}
	if firstIn == 0 || lastOut == 0 {
		return // the handler failed before recording
	}
	st.tr.leg("spmd.request_leg", lastIn-firstStart)
	st.tr.leg("spmd.handler", handler)
	st.tr.leg("spmd.reply_leg", lastEnd-lastOut)
	st.tr.leg("spmd.server_entry_skew", lastIn-firstIn)
	st.tr.leg("spmd.client_exit_skew", lastEnd-firstEnd)
	if int64(k) < keepSpans {
		sp := []span{{Name: "op", Start: firstStart, End: lastEnd}}
		for r := 0; r < spmdClientRanks; r++ {
			sp = append(sp, span{Name: fmt.Sprintf("client.rank%d", r), Parent: "op",
				Start: int64(l.start[r]) + off, End: int64(l.end[r]) + off})
		}
		for r := 0; r < spmdServerRanks; r++ {
			sp = append(sp, span{Name: fmt.Sprintf("handler.rank%d", r), Parent: "op",
				Start: slot.in[r].Load(), End: slot.out[r].Load()})
		}
		st.tr.record(int64(k), sp)
	}
}

func (st *spmdStack) close() {
	for _, cr := range st.ranks {
		close(cr.cmds)
	}
	st.cliWG.Wait()
	for _, cr := range st.ranks {
		if cr.b != nil {
			cr.b.Close()
		}
	}
	if st.cliWorld != nil {
		st.cliWorld.Close()
	}
	for _, o := range st.objs {
		if o != nil {
			o.Close()
		}
	}
	st.serveWG.Wait()
	st.srvWorld.Close()
}
