package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"pardis/internal/agent"
	"pardis/internal/cdr"
	"pardis/internal/giop"
	"pardis/internal/ior"
	"pardis/internal/orb"
	"pardis/internal/transport"
)

// orbCallers is the closed-loop caller count of the echo and named
// workloads: one per core of the 2-core host the benchmark targets,
// sharing one orb.Client as an application's threads would.
const orbCallers = 2

// Seeded payloads per payload length: echo draws from 8 payloads of
// each length in [0, echoMaxDoubles], named from 32 of its one length.
const (
	echoPayloadsPerLen  = 8
	namedPayloadsPerLen = 32
)

// newRegistry returns a transport registry with TCP installed: plain
// in the untraced run, write-timed through meteredTCP in the traced
// one.
func newRegistry(tr *tracer) *transport.Registry {
	reg := transport.NewRegistry()
	if tr != nil {
		reg.Register(meteredTCP{m: &tr.wire})
	} else {
		reg.Register(transport.TCP{})
	}
	return reg
}

const loopback = "tcp:127.0.0.1:0"

// echoHandler echoes a double sequence. The traced variant is a
// separate closure because its span record escapes to the heap, and
// the untraced run must not pay that allocation.
func echoHandler(tr *tracer, wrong bool) orb.Handler {
	if tr != nil {
		return tracedEchoHandler(tr, wrong)
	}
	return func(inc *orb.Incoming) {
		v, err := echoReply(inc, wrong)
		if err != nil {
			_ = inc.ReplySystemException("MARSHAL", err.Error())
			return
		}
		_ = inc.Reply(giop.ReplyOK, func(e *cdr.Encoder) { e.PutDoubleSeq(v) })
	}
}

func tracedEchoHandler(tr *tracer, wrong bool) orb.Handler {
	return func(inc *orb.Incoming) {
		hs := handlerSpan{in: tr.now()}
		v, err := echoReply(inc, wrong)
		if err != nil {
			_ = inc.ReplySystemException("MARSHAL", err.Error())
			return
		}
		hs.decEnd = tr.now()
		hs.out = hs.decEnd
		_ = inc.Reply(giop.ReplyOK, func(e *cdr.Encoder) {
			hs.encStart = tr.now()
			e.PutDoubleSeq(v)
			hs.encEnd = tr.now()
			tr.putHandler(inc.Header.InvocationID, hs)
		})
	}
}

// echoReply decodes the request's sequence and returns the reply: the
// sequence itself or, with wrong set (the self-test's deliberately
// wrong handler), one element longer. The handlers never reassign the
// result, so their reply closures capture it by value and the
// untraced handler allocates no more than the ORB's own.
func echoReply(inc *orb.Incoming, wrong bool) ([]float64, error) {
	v, err := inc.Decoder().DoubleSeq()
	if err == nil && wrong {
		v = append(v, 1)
	}
	return v, err
}

// choice is one seeded operation input: which payload, and for the
// named workload which name.
type choice struct{ payload, name uint16 }

// orbStack is a running echo or named workload.
type orbStack struct {
	cfg      runConfig
	tr       *tracer
	oc       *orb.Client
	payloads [][]float64
	keys     []string // object key per name index
	names    []string // agent name per name index (named only)
	endpoint string   // echo target
	resolver orb.RefSource
	servers  []*orb.Server // servers under test, sampled for admission
	callers  []*orbCaller
	lat      hist // the callers' latencies merged after each loop
	closers  []func()
	opSeq    atomic.Int64
}

type orbCaller struct {
	st      *orbStack
	choices []choice
	next    int
	payload []float64
	buf     []float64
	body    func(*cdr.Encoder)
	src     orb.RefSource
	timed   *timedRefSource
	enc     [2]int64 // client encode interval of the current op (traced)
	lat     hist
}

func (c *orbCaller) encode(e *cdr.Encoder) {
	if c.st.tr == nil {
		e.PutDoubleSeq(c.payload)
		return
	}
	c.enc[0] = c.st.tr.now()
	e.PutDoubleSeq(c.payload)
	c.enc[1] = c.st.tr.now()
}

// addCallers creates the callers. nNames is the number of names the
// callers choose from (1 for echo).
func (st *orbStack) addCallers(nNames int) {
	for i := 0; i < orbCallers; i++ {
		rng := rand.New(rand.NewSource(st.cfg.seed*1000003 + int64(i)))
		c := &orbCaller{st: st, choices: balancedChoices(rng, len(st.payloads), nNames),
			buf: make([]float64, 0, 256), lat: newHist()}
		c.body = c.encode
		c.src = st.resolver
		if st.tr != nil && st.resolver != nil {
			c.timed = &timedRefSource{RefSource: st.resolver, t: st.tr}
			c.src = c.timed
		}
		st.callers = append(st.callers, c)
	}
	st.lat = newHist()
}

// minChoices is the least length of a caller's cyclic choice list.
const minChoices = 4096

// balancedChoices returns a seeded cyclic list of choices in which
// every payload and every name occurs equally often: the seed orders
// the mix, while the mix itself — and with it the mean payload size —
// is the same for every seed, so seeds differ in inputs, not in load.
func balancedChoices(rng *rand.Rand, nPayloads, nNames int) []choice {
	cycle := nPayloads * nNames
	out := make([]choice, cycle*((minChoices+cycle-1)/cycle))
	for j := range out {
		out[j] = choice{payload: uint16(j % nPayloads), name: uint16(j % nNames)}
	}
	rng.Shuffle(len(out), func(a, b int) { out[a].payload, out[b].payload = out[b].payload, out[a].payload })
	rng.Shuffle(len(out), func(a, b int) { out[a].name, out[b].name = out[b].name, out[a].name })
	return out
}

// seededPayloads returns perLen payloads of each length in [minLen,
// maxLen], filled with seeded values.
func seededPayloads(seed int64, perLen, minLen, maxLen int) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	var out [][]float64
	for k := 0; k < perLen; k++ {
		for n := minLen; n <= maxLen; n++ {
			p := make([]float64, n)
			for j := range p {
				p[j] = rng.NormFloat64() * 1e3
			}
			out = append(out, p)
		}
	}
	return out
}

// op runs one invocation and checks the reply. It reports whether the
// reply was wrong (returned but different from the request) and the
// error when the invocation failed outright.
func (c *orbCaller) op(ctx context.Context) (wrong bool, err error) {
	st := c.st
	ch := c.choices[c.next]
	c.next = (c.next + 1) % len(c.choices)
	c.payload = st.payloads[ch.payload]
	hdr := giop.RequestHeader{
		InvocationID:     st.oc.NewInvocationID(),
		ResponseExpected: true,
		ObjectKey:        st.keys[ch.name],
		Operation:        "echo",
		ThreadRank:       -1,
		ThreadCount:      1,
	}
	tr := st.tr
	var start int64
	if tr != nil {
		start = tr.now()
		if c.timed != nil {
			c.timed.reset()
		}
	}
	var rh giop.ReplyHeader
	var order cdr.ByteOrder
	var raw []byte
	if st.resolver != nil {
		rh, order, raw, err = st.oc.InvokeNamed(ctx, c.src, st.names[ch.name], hdr, c.body)
	} else {
		rh, order, raw, err = st.oc.Invoke(ctx, st.endpoint, hdr, c.body)
	}
	var ret int64
	if tr != nil {
		ret = tr.now()
	}
	if err == nil && rh.Status != giop.ReplyOK {
		err = fmt.Errorf("reply status %v", rh.Status)
	}
	if err != nil {
		return false, err
	}
	got, derr := cdr.NewDecoder(order, raw).DoubleSeqInto(c.buf[:0])
	var decEnd int64
	if tr != nil {
		decEnd = tr.now()
	}
	if derr != nil {
		return false, derr
	}
	c.buf = got[:0]
	wrong = !equalDoubles(got, c.payload)
	if tr != nil {
		c.traceOp(hdr.InvocationID, start, ret, decEnd)
	}
	return wrong, nil
}

func equalDoubles(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// traceOp derives the op's legs from its client and handler spans.
func (c *orbCaller) traceOp(inv uint64, start, ret, decEnd int64) {
	tr := c.st.tr
	h, ok := tr.takeHandler(inv)
	if !ok {
		return
	}
	var res [2]int64
	var resNs int64
	if c.timed != nil {
		res, resNs = [2]int64{c.timed.start, c.timed.end}, c.timed.ns
	}
	enc := c.enc[1] - c.enc[0]
	tr.leg("orb.request_leg", h.in-start-enc-resNs)
	tr.leg("orb.handler", h.out-h.in)
	tr.leg("orb.reply_leg", ret-h.out-(h.encEnd-h.encStart))
	tr.leg("cdr.encode", enc+h.encEnd-h.encStart)
	tr.leg("cdr.decode", decEnd-ret+h.decEnd-h.in)
	children := [][2]int64{c.enc, {h.in, h.out}, {h.encStart, h.encEnd}, {ret, decEnd}}
	if c.timed != nil {
		tr.leg("agent.resolve", resNs)
		children = append(children, res)
	}
	tr.leg("orb.self", selfTime(start, decEnd, children))
	if seq := c.st.opSeq.Add(1) - 1; seq < keepSpans {
		sp := []span{
			{Name: "op", Start: start, End: decEnd},
			{Name: "cdr.encode", Parent: "op", Start: c.enc[0], End: c.enc[1]},
			{Name: "handler", Parent: "op", Start: h.in, End: h.out},
			{Name: "cdr.decode", Parent: "handler", Start: h.in, End: h.decEnd},
			{Name: "cdr.encode.reply", Parent: "op", Start: h.encStart, End: h.encEnd},
			{Name: "cdr.decode.reply", Parent: "op", Start: ret, End: decEnd},
		}
		if c.timed != nil {
			sp = append(sp, span{Name: "agent.resolve", Parent: "op", Start: res[0], End: res[1]})
		}
		tr.record(seq, sp)
	}
}

// loop drives the callers in a closed loop for d (or, when n > 0, for
// n operations per caller) and collects the phase result.
func (st *orbStack) loop(d time.Duration, n int) phase {
	var wg sync.WaitGroup
	res := make([]phase, len(st.callers))
	start := time.Now()
	for i, c := range st.callers {
		c.lat.reset()
		wg.Add(1)
		go func(c *orbCaller, p *phase) {
			defer wg.Done()
			ctx := context.Background()
			for k := 0; ; k++ {
				t0 := time.Now()
				wrong, err := c.op(ctx)
				t1 := time.Now()
				c.lat.add(int64(t1.Sub(t0)))
				p.ops++
				if err != nil {
					p.errored++
					p.lastErr = err
				} else if wrong {
					p.wrong++
				}
				p.payloadBytes += 16 * int64(len(c.payload))
				if (n > 0 && k+1 >= n) || (n == 0 && t1.Sub(start) >= d) {
					return
				}
			}
		}(c, &res[i])
	}
	wg.Wait()
	st.lat.reset()
	total := phase{elapsed: time.Since(start), lat: st.lat}
	for i, c := range st.callers {
		res[i].lat = c.lat
		total.add(&res[i])
	}
	return total
}

// orbWarmOps is the per-caller warm-up length.
const orbWarmOps = 2000

func (st *orbStack) warm() error {
	p := st.loop(0, orbWarmOps)
	if p.errored > 0 {
		return fmt.Errorf("warm-up: %d of %d invocations failed: %w", p.errored, p.ops, p.lastErr)
	}
	return nil
}

func (st *orbStack) run(d time.Duration) phase { return st.loop(d, 0) }

func (st *orbStack) admission() (running, queued int) {
	for _, s := range st.servers {
		a := s.AdmissionStats()
		running += a.Running
		queued += a.Queued
	}
	return running, queued
}

func (st *orbStack) spmdBytes() (out, in uint64) { return 0, 0 }

func (st *orbStack) close() {
	for i := len(st.closers) - 1; i >= 0; i-- {
		st.closers[i]()
	}
}

// setupEcho starts one admission-controlled server and one client.
func setupEcho(cfg runConfig, tr *tracer) (stack, error) {
	reg := newRegistry(tr)
	st := &orbStack{cfg: cfg, tr: tr, keys: []string{"bench/echo"}}
	srv := orb.NewServer(reg, orb.WithAdmission(orb.DefaultAdmissionConfig()))
	srv.Handle("bench/echo", echoHandler(tr, cfg.wrong))
	ep, err := srv.Listen(loopback)
	if err != nil {
		return nil, err
	}
	st.closers = append(st.closers, func() { srv.Close() })
	st.servers = []*orb.Server{srv}
	st.endpoint = ep
	st.oc = orb.NewClient(reg)
	st.closers = append(st.closers, func() { st.oc.Close() })
	st.payloads = seededPayloads(cfg.seed, echoPayloadsPerLen, 0, cfg.echoMaxDoubles)
	st.addCallers(1)
	return st, nil
}

// Named workload shape.
const (
	namedAgents   = 2
	namedReplicas = 3
	namedNames    = 16
	namedDoubles  = 256
)

// setupNamed starts two peer-synced agents, three replica servers that
// each serve all names and heartbeat to both agents, and a client
// resolving through an agent.Resolver. It returns once both agent
// tables hold every name × replica row.
func setupNamed(cfg runConfig, tr *tracer) (stack, error) {
	reg := newRegistry(tr)
	st := &orbStack{cfg: cfg, tr: tr}
	fail := func(err error) (stack, error) {
		st.close()
		return nil, err
	}

	tables := make([]*agent.Table, namedAgents)
	agentEPs := make([]string, namedAgents)
	for i := range tables {
		tables[i] = agent.NewTable()
		srv := orb.NewServer(reg)
		agent.Serve(srv, tables[i])
		ep, err := srv.Listen(loopback)
		if err != nil {
			return fail(err)
		}
		agentEPs[i] = ep
		stopSweep := tables[i].StartSweeper(agent.DefaultHeartbeatInterval / 2)
		st.closers = append(st.closers, func() { srv.Close() }, stopSweep)
	}
	for i := range tables {
		pc := orb.NewClient(reg)
		var peers []*agent.Client
		for j, ep := range agentEPs {
			if j != i {
				peers = append(peers, agent.NewClient(pc, ep))
			}
		}
		p := agent.NewPeers(agent.PeersConfig{Table: tables[i], Clients: peers})
		p.Start()
		st.closers = append(st.closers, func() { pc.Close() }, p.Stop)
	}

	for i := 0; i < namedNames; i++ {
		st.names = append(st.names, fmt.Sprintf("bench/name-%02d", i))
		st.keys = append(st.keys, fmt.Sprintf("objects/bench/name-%02d", i))
	}
	for r := 0; r < namedReplicas; r++ {
		srv := orb.NewServer(reg, orb.WithAdmission(orb.DefaultAdmissionConfig()))
		h := echoHandler(tr, cfg.wrong)
		for _, k := range st.keys {
			srv.Handle(k, h)
		}
		ep, err := srv.Listen(loopback)
		if err != nil {
			return fail(err)
		}
		st.servers = append(st.servers, srv)
		hc := orb.NewClient(reg)
		acs := make([]*agent.Client, len(agentEPs))
		for j, aep := range agentEPs {
			acs[j] = agent.NewClient(hc, aep)
		}
		rg := agent.NewRegistrar(agent.RegistrarConfig{Clients: acs, Instance: fmt.Sprintf("replica-%d", r)})
		for i, name := range st.names {
			rg.Add(name, &ior.Ref{TypeID: "IDL:perfbench/Echo:1.0", Key: st.keys[i], Threads: 1, Endpoints: []string{ep}})
		}
		rg.Start()
		st.closers = append(st.closers, func() { srv.Close() }, func() { hc.Close() }, func() {
			ctx, cancel := context.WithTimeout(context.Background(), time.Second)
			defer cancel()
			_ = rg.Stop(ctx)
		})
	}
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		converged := true
		for _, t := range tables {
			if names, reps := t.Size(); names != namedNames || reps != namedNames*namedReplicas {
				converged = false
			}
		}
		if converged {
			break
		}
		if time.Now().After(deadline) {
			return fail(errors.New("agent tables never converged"))
		}
	}

	st.oc = orb.NewClient(reg)
	st.closers = append(st.closers, func() { st.oc.Close() })
	racs := make([]*agent.Client, len(agentEPs))
	for i, ep := range agentEPs {
		racs[i] = agent.NewClient(st.oc, ep)
	}
	st.resolver = agent.NewResolver(agent.ResolverConfig{Agents: racs})
	st.payloads = seededPayloads(cfg.seed, namedPayloadsPerLen, namedDoubles, namedDoubles)
	st.addCallers(namedNames)
	return st, nil
}
