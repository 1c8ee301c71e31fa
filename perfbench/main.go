// Command perfbench is the repository benchmark. It drives the real
// PARDIS stack — transport, GIOP framing, CDR, ORB, agent, SPMD and
// RTS — over TCP loopback inside one process, in one of four named
// closed-loop workloads, and prints one JSON result as its last line
// of output: the end-to-end metrics of an untraced run (-trace 0), or
// the per-layer metrics of a traced run measured from outside each
// layer (-trace 1). README.md describes every workload and metric.
//
//	go build -o perfbench . && ./perfbench -workload echo -seed 1 -seconds 20 -trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// runConfig is what a workload's setup receives: the seed its inputs
// derive from and the self-test switch.
type runConfig struct {
	seed           int64
	echoMaxDoubles int
	// wrong installs deliberately wrong server handlers, so the
	// correctness checks must report every operation as failed.
	wrong bool
}

// stack is one set-up workload: the servers, clients and inputs of a
// run, ready for warm-up and timed phases.
type stack interface {
	warm() error
	run(d time.Duration) phase
	// admission reports the summed ORB admission gate state of the
	// servers under test (zero where the workload has none).
	admission() (running, queued int)
	// spmdBytes reports the summed Binding.Stats payload counters of
	// the client ranks (zero for non-SPMD workloads).
	spmdBytes() (out, in uint64)
	close()
}

// phase is the outcome of one timed closed-loop phase.
type phase struct {
	ops          int64
	errored      int64 // invocations that returned an error
	wrong        int64 // replies the client found different from what it expected
	serverWrong  int64 // invocations whose server-side check failed
	lastErr      error
	lat          hist
	payloadBytes int64
	elapsed      time.Duration
}

func (p *phase) add(o *phase) {
	p.ops += o.ops
	p.errored += o.errored
	p.wrong += o.wrong
	p.serverWrong += o.serverWrong
	if o.lastErr != nil {
		p.lastErr = o.lastErr
	}
	p.lat.merge(&o.lat)
	p.payloadBytes += o.payloadBytes
}

func (p *phase) failed() int64 { return p.errored + p.wrong }

// workload names a setup and the parameters recorded with its results.
type workload struct {
	name   string
	setup  func(cfg runConfig, tr *tracer) (stack, error)
	params func(cfg runConfig) map[string]any
}

var workloads = []workload{
	{
		name: "echo", setup: setupEcho,
		params: func(cfg runConfig) map[string]any {
			return map[string]any{"callers": orbCallers, "servers": 1, "admission": "DefaultAdmissionConfig",
				"payload_doubles": fmt.Sprintf("each of [0,%d] equally often, seeded order and values", cfg.echoMaxDoubles),
				"payloads":        echoPayloadsPerLen * (cfg.echoMaxDoubles + 1)}
		},
	},
	{
		name: "named", setup: setupNamed,
		params: func(runConfig) map[string]any {
			return map[string]any{"callers": orbCallers, "agents": namedAgents, "replicas": namedReplicas,
				"names": namedNames, "payload_doubles": namedDoubles, "heartbeat": "agent.DefaultHeartbeatInterval",
				"name_choice": "each name equally often, seeded order"}
		},
	},
	{
		name: "spmd-mp-in", setup: setupSPMDIn,
		params: func(runConfig) map[string]any {
			return map[string]any{"client_ranks": spmdClientRanks, "server_ranks": spmdServerRanks,
				"method": "multi-port", "mode": "in", "doubles": spmdInLen, "dist": "block"}
		},
	},
	{
		name: "spmd-central-inout", setup: setupSPMDInOut,
		params: func(runConfig) map[string]any {
			return map[string]any{"client_ranks": spmdClientRanks, "server_ranks": spmdServerRanks,
				"method": "centralized", "mode": "inout", "doubles": spmdInOutLen, "dist": "block"}
		},
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// tailQuantile is the percentile latency_tail_us reports on every
// workload. p99 leaves thousands of samples beyond it on echo and named,
// but on a shared host it swings by a third within one run as the
// hypervisor deschedules the process (a 0.1% cluster of ~4 ms
// operations sits just past it); p90 stays within the 0.25 bound the
// gate allows. The p99 over all operations is still recorded in the
// result file.
const tailQuantile = 0.90

// setupReps is how many times an untraced run sets its workload up;
// setup_s is their median.
const setupReps = 5

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// check is one fidelity or correctness cross-check of a run.
type check struct {
	OK     bool   `json:"ok"`
	Detail string `json:"detail"`
}

func main() {
	workloadName := flag.String("workload", "", "workload to run: echo, named, spmd-mp-in, spmd-central-inout")
	seed := flag.Int64("seed", 1, "seed every input derives from")
	seconds := flag.Float64("seconds", 20, "measured seconds (a traced run splits them between its untraced and traced phases)")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics, 0 = untraced run reporting end-to-end metrics")
	out := flag.String("out", ".bench_build/perfbench", "directory for result and span files")
	commit := flag.String("commit", "unknown", "git commit of the benchmarked tree")
	dirty := flag.String("dirty", "unknown", "whether the benchmarked tree had uncommitted changes")
	maxDoubles := flag.Int("echo-max-doubles", 32, "echo payload length bound in doubles (0 reproduces the payload-0 allocation count)")
	flag.Parse()

	w, ok := findWorkload(*workloadName)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) || *maxDoubles < 0 {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (one of %s), -seconds > 0, -trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	// A run must never hang past its budget: a wedged collective is a
	// failure, reported by exit status without a result.
	watchdog := time.AfterFunc(time.Duration(*seconds*float64(time.Second))+140*time.Second, func() {
		fmt.Fprintln(os.Stderr, "perfbench: run exceeded its time budget")
		os.Exit(3)
	})
	defer watchdog.Stop()

	cfg := runConfig{seed: *seed, echoMaxDoubles: *maxDoubles}
	dur := time.Duration(*seconds * float64(time.Second))
	rep := report{
		Workload: w.name, Seed: *seed, Seconds: *seconds, Trace: *trace,
		Params: w.params(cfg), Commit: *commit, Dirty: *dirty, Host: fingerprint(),
		TailPercentile: tailQuantile * 100, Checks: map[string]check{},
	}
	var res result
	var tr *tracer
	var err error
	if *trace == 0 {
		res, err = runUntraced(w, cfg, dur, &rep)
	} else {
		tr = newTracer()
		res, err = runTraced(w, cfg, dur, tr, &rep)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	rep.Result = res
	if err := writeOutputs(*out, &rep, tr); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	printSummary(&rep)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func workloadNames() string {
	var n []string
	for _, w := range workloads {
		n = append(n, w.name)
	}
	return strings.Join(n, ", ")
}

// measured is a timed phase together with the process-wide readings
// taken around it.
type measured struct {
	phase
	before, after snapshot
	heapPeak      uint64
	admRunning    float64
	admQueued     float64
	spmdOut       uint64
	spmdIn        uint64
}

func measure(st stack, d time.Duration, sampleAdmission bool) measured {
	var m measured
	o0, i0 := st.spmdBytes()
	var adm *gaugeSampler
	if sampleAdmission {
		adm = startGaugeSampler(time.Millisecond, st.admission)
	}
	heap := startHeapSampler(time.Millisecond)
	m.before = takeSnapshot()
	m.phase = st.run(d)
	m.after = takeSnapshot()
	m.heapPeak = heap.finish()
	if adm != nil {
		m.admRunning, m.admQueued = adm.finish()
	}
	o1, i1 := st.spmdBytes()
	m.spmdOut, m.spmdIn = o1-o0, i1-i0
	return m
}

// setupAndWarm sets the workload up and runs its fixed warm-up,
// returning the stack and the time both took.
func setupAndWarm(w workload, cfg runConfig, tr *tracer) (stack, time.Duration, error) {
	t0 := time.Now()
	st, err := w.setup(cfg, tr)
	if err != nil {
		return nil, 0, fmt.Errorf("%s setup: %w", w.name, err)
	}
	if err := st.warm(); err != nil {
		st.close()
		return nil, 0, fmt.Errorf("%s: %w", w.name, err)
	}
	return st, time.Since(t0), nil
}

// subPhases is how many parts an untraced run's timed phase is split
// into, and quietParts how many of them the end-to-end metrics use:
// those in which the hypervisor stole the least CPU time from the host
// (/proc/stat steal). Each metric but setup_s is the median over the
// quiet parts. On a shared host steal comes in bursts of seconds and
// slows the latency-bound SPMD workloads by up to 40% while it lasts;
// skipping the worst half of the run keeps a burst from setting the
// result.
const (
	subPhases  = 10
	quietParts = 5
)

// part is one timed part of an untraced run.
type part struct {
	Metrics map[string]metric `json:"metrics"`
	Steal   float64           `json:"steal_share"`
	Used    bool              `json:"used"`
}

func runUntraced(w workload, cfg runConfig, dur time.Duration, rep *report) (result, error) {
	var st stack
	var setups []float64
	for i := 0; i < setupReps; i++ {
		if st != nil {
			st.close()
		}
		var took time.Duration
		var err error
		if st, took, err = setupAndWarm(w, cfg, nil); err != nil {
			return result{}, err
		}
		setups = append(setups, took.Seconds())
	}
	var total phase
	parts := make([]part, subPhases)
	for i := range parts {
		m := measure(st, dur/subPhases, false)
		parts[i] = part{Metrics: endToEnd(m), Steal: stealShare(m.before, m.after)}
		total.add(&m.phase)
	}
	st.close()
	metrics := medianMetrics(quietest(parts, quietParts))
	rep.Parts = parts
	rep.P99us = total.lat.quantile(0.99) / 1e3
	metrics["setup_s"] = metric{median(setups), "s"}
	rep.SetupSamples = setups
	rep.Samples = total.lat.count()
	rep.FailRatio = float64(total.failed()) / float64(max(total.ops, 1))
	rep.Wrong = total.wrong + total.serverWrong
	if total.lastErr != nil {
		rep.LastError = total.lastErr.Error()
	}
	return result{
		Correct:   rep.Wrong == 0,
		Attempted: total.ops,
		Failed:    total.failed(),
		Metrics:   metrics,
	}, nil
}

// endToEnd derives the end-to-end metrics, except setup_s, of one
// timed part.
func endToEnd(m measured) map[string]metric {
	ops := float64(max(m.ops, 1))

	secs := m.elapsed.Seconds()
	return map[string]metric{
		"ops_per_s":          {float64(m.ops) / secs, "1/s"},
		"latency_p50_us":     {m.lat.quantile(0.5) / 1e3, "us"},
		"latency_tail_us":    {m.lat.quantile(tailQuantile) / 1e3, "us"},
		"goodput_mb_s":       {float64(m.payloadBytes) / secs / 1e6, "MB/s"},
		"allocs_per_op":      {float64(m.after.mallocs-m.before.mallocs) / ops, "allocs/op"},
		"alloc_bytes_per_op": {float64(m.after.bytes-m.before.bytes) / ops, "B/op"},
		"cpu_us_per_op":      {float64(m.after.cpu-m.before.cpu) / 1e3 / ops, "us/op"},
		"heap_peak_mb":       {float64(m.heapPeak) / 1e6, "MB"},
	}
}

// quietest marks the n parts with the least steal as used and returns
// their metrics.
func quietest(parts []part, n int) []map[string]metric {
	order := make([]int, len(parts))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return parts[order[a]].Steal < parts[order[b]].Steal })
	out := make([]map[string]metric, 0, n)
	for _, i := range order[:n] {
		parts[i].Used = true
		out = append(out, parts[i].Metrics)
	}
	return out
}

// medianMetrics is the per-name median over parts' metrics.
func medianMetrics(parts []map[string]metric) map[string]metric {
	out := make(map[string]metric, len(parts[0]))
	for name, m := range parts[0] {
		v := make([]float64, len(parts))
		for i, p := range parts {
			v[i] = p[name].Value
		}
		out[name] = metric{median(v), m.Unit}
	}
	return out
}

// runTraced runs an untraced phase and then a traced phase of half the
// measured time each, reports the per-layer metrics of the traced one,
// and cross-checks the two.
func runTraced(w workload, cfg runConfig, dur time.Duration, tr *tracer, rep *report) (result, error) {
	st, _, err := setupAndWarm(w, cfg, nil)
	if err != nil {
		return result{}, err
	}
	plain := measure(st, dur/2, false)
	st.close()

	st, _, err = setupAndWarm(w, cfg, tr)
	if err != nil {
		return result{}, err
	}
	w0 := wireReading(tr)
	traced := measure(st, dur/2, true)
	w1 := wireReading(tr)
	st.close()

	layers := perLayer(traced, tr, w1.sub(w0))
	layers["trace.overhead_frac"] = metric{1 - perSecond(traced)/perSecond(plain), "ratio"}
	rep.Untraced = counterLayers(plain)
	rep.Samples = traced.lat.count()

	wrong := plain.wrong + plain.serverWrong + traced.wrong + traced.serverWrong
	rep.Wrong = wrong
	rep.FailRatio = float64(plain.failed()+traced.failed()) / float64(max(plain.ops+traced.ops, 1))
	if traced.lastErr != nil {
		rep.LastError = traced.lastErr.Error()
	} else if plain.lastErr != nil {
		rep.LastError = plain.lastErr.Error()
	}
	fidelityChecks(rep, plain, traced, w1.sub(w0))
	correct := wrong == 0
	for _, c := range rep.Checks {
		correct = correct && c.OK
	}
	return result{
		Correct:   correct,
		Attempted: plain.ops + traced.ops,
		Failed:    plain.failed() + traced.failed(),
		Metrics:   layers,
	}, nil
}

func perSecond(m measured) float64 { return float64(m.ops) / m.elapsed.Seconds() }

// wireTotals is a reading of the transport wrapper's counters.
type wireTotals struct{ writes, writevs, writeNs, bytes int64 }

func wireReading(tr *tracer) wireTotals {
	return wireTotals{tr.wire.writes.Load(), tr.wire.writevs.Load(), tr.wire.writeNs.Load(),
		tr.wire.bytes.Load()}
}

func (a wireTotals) sub(b wireTotals) wireTotals {
	return wireTotals{a.writes - b.writes, a.writevs - b.writevs, a.writeNs - b.writeNs,
		a.bytes - b.bytes}
}

// counterLayers are the per-layer metrics derived from counters the
// program exports; the untraced phase reports them too, to show both
// phases took the same path.
func counterLayers(m measured) map[string]metric {
	ops := float64(max(m.ops, 1))
	kop := ops / 1000
	secs := m.elapsed.Seconds()
	d := func(k string) float64 { return delta(m.before, m.after, k) }
	hit := 0.0
	if gets := d("pool_gets"); gets > 0 {
		hit = 1 - d("pool_misses")/gets
	}
	rpc := 0.0
	if all := d("resolves"); all > 0 {
		rpc = d("resolves_agent") / all
	}
	eff := 0.0
	if wb := d("wire_bytes"); wb > 0 {
		eff = float64(m.payloadBytes) / wb
	}
	return map[string]metric{
		"transport.wire_efficiency": {eff, "ratio"},
		"transport.dials":           {d("dials"), "count"},
		"giop.pool_hit_ratio":       {hit, "ratio"},
		"orb.shed_per_kop":          {d("shed") / kop, "1/kop"},
		"orb.retries_per_kop":       {d("retries") / kop, "1/kop"},
		"orb.failovers_per_kop":     {d("failovers") / kop, "1/kop"},
		"agent.rpc_ratio":           {rpc, "ratio"},
		"agent.degraded_per_kop":    {d("resolver_degraded") / kop, "1/kop"},
		"agent.reresolves_per_kop":  {d("reresolves") / kop, "1/kop"},
		"agent.heartbeats_per_s":    {d("heartbeats") / secs, "1/s"},
		"agent.peer_syncs_per_s":    {d("peer_syncs") / secs, "1/s"},
		"spmd.bytes_out_per_op":     {float64(m.spmdOut) / ops, "B/op"},
		"spmd.bytes_in_per_op":      {float64(m.spmdIn) / ops, "B/op"},
		"go.gc_cycles_per_kop":      {float64(m.after.gcs-m.before.gcs) / kop, "1/kop"},
		"go.gc_pause_ns_per_op":     {float64(m.after.pauseNs-m.before.pauseNs) / ops, "ns/op"},
	}
}

func perLayer(m measured, tr *tracer, wire wireTotals) map[string]metric {
	ops := float64(max(m.ops, 1))
	out := counterLayers(m)
	set := func(name string, v float64, unit string) { out[name] = metric{v, unit} }
	set("transport.writes_per_op", float64(wire.writes)/ops, "count/op")
	set("transport.write_ns_per_op", float64(wire.writeNs)/ops, "ns/op")
	set("transport.bytes_per_op", float64(wire.bytes)/ops, "B/op")
	set("transport.conns_open", float64(m.after.conns), "count")
	set("cdr.encode_ns_per_op", tr.legMean("cdr.encode"), "ns/op")
	set("cdr.decode_ns_per_op", tr.legMean("cdr.decode"), "ns/op")
	set("orb.request_leg_ns_p50", tr.legQuantile("orb.request_leg", 0.5), "ns")
	set("orb.handler_ns_p50", tr.legQuantile("orb.handler", 0.5), "ns")
	set("orb.reply_leg_ns_p50", tr.legQuantile("orb.reply_leg", 0.5), "ns")
	set("orb.self_ns_per_op", tr.legMean("orb.self"), "ns/op")
	set("orb.admission_running_mean", m.admRunning, "count")
	set("orb.admission_queued_mean", m.admQueued, "count")
	set("agent.resolve_ns_p50", tr.legQuantile("agent.resolve", 0.5), "ns")
	set("agent.resolve_ns_p99", tr.legQuantile("agent.resolve", 0.99), "ns")
	set("spmd.request_leg_ns_p50", tr.legQuantile("spmd.request_leg", 0.5), "ns")
	set("spmd.handler_ns_p50", tr.legQuantile("spmd.handler", 0.5), "ns")
	set("spmd.reply_leg_ns_p50", tr.legQuantile("spmd.reply_leg", 0.5), "ns")
	set("spmd.server_entry_skew_ns_p50", tr.legQuantile("spmd.server_entry_skew", 0.5), "ns")
	set("spmd.client_exit_skew_ns_p50", tr.legQuantile("spmd.client_exit_skew", 0.5), "ns")
	r := &tr.rts
	set("rts.client_gather_ns_per_op", float64(r.gatherNs[sideClient].Load())/ops, "ns/op")
	set("rts.client_scatter_ns_per_op", float64(r.scatterNs[sideClient].Load())/ops, "ns/op")
	set("rts.server_gather_ns_per_op", float64(r.gatherNs[sideServer].Load())/ops, "ns/op")
	set("rts.server_scatter_ns_per_op", float64(r.scatterNs[sideServer].Load())/ops, "ns/op")
	set("rts.bcast_ns_per_op", float64(r.bcastNs.Load())/ops, "ns/op")
	set("rts.barrier_ns_per_op", float64(r.barrierNs.Load())/ops, "ns/op")
	set("rts.p2p_bytes_per_op", float64(r.bytes.Load())/ops, "B/op")
	return out
}

// fidelityChecks proves the traced phase measured the same program the
// untraced phase ran.
func fidelityChecks(rep *report, plain, traced measured, wire wireTotals) {
	rep.Checks["transport_forwards_writebuffers"] = check{
		OK:     wire.writevs > 0,
		Detail: fmt.Sprintf("%d of %d writes went through WriteBuffers", wire.writevs, wire.writes),
	}
	windowed := wrapperKeepsWindows()
	rep.Checks["rts_wrapper_keeps_window_thread"] = check{OK: windowed, Detail: fmt.Sprintf("AsWindowThread(wrapped) = %v", windowed)}
	counter := delta(traced.before, traced.after, "wire_bytes")
	diff := float64(wire.bytes) - counter
	rep.Checks["transport_bytes_match_counter"] = check{
		OK:     diff*diff <= (0.01*counter)*(0.01*counter),
		Detail: fmt.Sprintf("wrapper %d B, pardis_transport_bytes_written_total %.0f B", wire.bytes, counter),
	}
	po, pi := float64(plain.spmdOut)/float64(max(plain.ops, 1)), float64(plain.spmdIn)/float64(max(plain.ops, 1))
	to, ti := float64(traced.spmdOut)/float64(max(traced.ops, 1)), float64(traced.spmdIn)/float64(max(traced.ops, 1))
	rep.Checks["spmd_bytes_identical"] = check{
		OK:     po == to && pi == ti,
		Detail: fmt.Sprintf("untraced out/in %.0f/%.0f B/op, traced %.0f/%.0f B/op", po, pi, to, ti),
	}
}

// report is the machine-written result file of one run.
type report struct {
	Workload       string            `json:"workload"`
	Seed           int64             `json:"seed"`
	Seconds        float64           `json:"seconds"`
	Trace          int               `json:"trace"`
	Params         map[string]any    `json:"params"`
	Commit         string            `json:"commit"`
	Dirty          string            `json:"dirty"`
	Host           host              `json:"host"`
	TailPercentile float64           `json:"latency_tail_percentile"`
	P99us          float64           `json:"latency_p99_us,omitempty"`
	Samples        int               `json:"latency_samples"`
	SetupSamples   []float64         `json:"setup_samples_s,omitempty"`
	FailRatio      float64           `json:"fail_ratio"`
	Wrong          int64             `json:"wrong"`
	LastError      string            `json:"last_error,omitempty"`
	Checks         map[string]check  `json:"checks,omitempty"`
	Untraced       map[string]metric `json:"untraced_counter_metrics,omitempty"`
	Parts          []part            `json:"parts,omitempty"`
	Result         result            `json:"result"`
}

func writeOutputs(dir string, rep *report, tr *tracer) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d", rep.Workload, rep.Seed, rep.Trace))
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(base+".json", b, 0o644); err != nil {
		return err
	}
	if tr != nil {
		return tr.writeSpans(base + ".spans.json")
	}
	return nil
}

func printSummary(rep *report) {
	fmt.Printf("perfbench %s seed=%d trace=%d commit=%s dirty=%s host=%q nproc=%d gomaxprocs=%d\n",
		rep.Workload, rep.Seed, rep.Trace, rep.Commit, rep.Dirty, rep.Host.CPU, rep.Host.NumCPU, runtime.GOMAXPROCS(0))
	names := make([]string, 0, len(rep.Result.Metrics))
	for n := range rep.Result.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := rep.Result.Metrics[n]
		fmt.Printf("  %-32s %16.4f %s\n", n, m.Value, m.Unit)
	}
	fmt.Printf("  %-32s %16.6f ratio (%d of %d failed, %d wrong)\n", "fail_ratio", rep.FailRatio,
		rep.Result.Failed, rep.Result.Attempted, rep.Wrong)
	fmt.Printf("  latency tail percentile p%.0f over %d samples (p99 %.1f us, not gated)\n", rep.TailPercentile, rep.Samples, rep.P99us)
	for n, c := range rep.Checks {
		fmt.Printf("  check %-34s ok=%v  %s\n", n, c.OK, c.Detail)
	}
	if rep.LastError != "" {
		fmt.Printf("  last error: %s\n", rep.LastError)
	}
}
