package main

import (
	"math"
	"math/bits"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"pardis/internal/telemetry"
)

// hist is a fixed-size log-linear histogram of non-negative int64
// values (nanoseconds). Values below 2^(histBits+1) are kept exactly;
// larger ones fall into 2^histBits sub-buckets per power of two, a
// relative resolution of 2^-histBits. Recording never allocates after
// the first value and the memory held does not grow with the run, so
// the benchmark's own bookkeeping does not change the heap — and with
// it the GC pacing — of the program it measures.
type hist struct {
	counts []uint64
	n      uint64
	sum    int64
}

const (
	histBits    = 10
	histSub     = 1 << histBits
	histBuckets = 32 * histSub // up to ~2^41 ns
)

func histIndex(v int64) int {
	if v < 2*histSub {
		return int(max(v, 0))
	}
	e := bits.Len64(uint64(v)) - histBits - 1
	return min(e*histSub+int(uint64(v)>>e), histBuckets-1)
}

// histRange is the lowest value of bucket i and the bucket's width.
func histRange(i int) (lo, width float64) {
	if i < 2*histSub {
		return float64(i), 1
	}
	e := i/histSub - 1
	m := i - e*histSub
	return float64(uint64(m) << e), float64(uint64(1) << e)
}

func (h *hist) add(v int64) {
	if h.counts == nil {
		h.counts = make([]uint64, histBuckets)
	}
	h.counts[histIndex(v)]++
	h.n++
	h.sum += v
}

func (h *hist) merge(o *hist) {
	if o.n == 0 {
		return
	}
	if h.counts == nil {
		h.counts = make([]uint64, histBuckets)
	}
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	h.sum += o.sum
}

// newHist returns a histogram with its buckets allocated, so that a
// timed phase recording into it allocates nothing.
func newHist() hist { return hist{counts: make([]uint64, histBuckets)} }

// reset empties the histogram and keeps its buckets for reuse.
func (h *hist) reset() {
	clear(h.counts)
	h.n, h.sum = 0, 0
}

func (h *hist) count() int { return int(h.n) }

func (h *hist) mean() float64 {
	if h.n == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.n)
}

// at estimates the rank-th smallest value (0-based), spreading each
// bucket's samples evenly across its width.
func (h *hist) at(rank uint64) float64 {
	var seen uint64
	for i, c := range h.counts {
		if c == 0 || seen+c <= rank {
			seen += c
			continue
		}
		lo, width := histRange(i)
		return lo + width*(float64(rank-seen)+0.5)/float64(c)
	}
	return 0
}

// quantile interpolates linearly between the estimated order
// statistics around q·(n−1) (the "type 7" estimator).
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	r := q * float64(h.n-1)
	lo := uint64(math.Floor(r))
	a, b := h.at(lo), h.at(min(lo+1, h.n-1))
	return a + (r-float64(lo))*(b-a)
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// counterKey names one telemetry counter the program already exports;
// label, when set, selects a single label set instead of the sum over
// all of them.
type counterKey struct {
	name  string
	label []string
}

// Every counter the benchmark reads, by the short key the metric
// derivations use.
var counterKeys = map[string]counterKey{
	"wire_bytes":        {name: "pardis_transport_bytes_written_total"},
	"dials":             {name: "pardis_transport_dials_total"},
	"pool_gets":         {name: "pardis_giop_pool_gets_total"},
	"pool_misses":       {name: "pardis_giop_pool_misses_total"},
	"shed":              {name: "pardis_server_shed_total"},
	"retries":           {name: "pardis_client_retries_total"},
	"failovers":         {name: "pardis_client_failovers_total"},
	"reresolves":        {name: "pardis_client_reresolves_total"},
	"resolves":          {name: "pardis_agent_resolver_total"},
	"resolves_agent":    {name: "pardis_agent_resolver_total", label: []string{"source", "agent"}},
	"resolver_degraded": {name: "pardis_agent_resolver_degraded_total"},
	"heartbeats":        {name: "pardis_agent_heartbeats_total"},
	"peer_syncs":        {name: "pardis_agent_peer_syncs_total"},
}

// snapshot is the process-wide state read at a phase boundary: the
// program's own counters, the Go runtime's allocation and GC totals,
// and the process CPU time.
type snapshot struct {
	counters map[string]uint64
	mallocs  uint64
	bytes    uint64
	gcs      uint64
	pauseNs  uint64
	cpu      time.Duration
	conns    int64 // open transport connections
	// steal and ticks are the host's stolen and total CPU time
	// (/proc/stat, all CPUs); zero where the file is unavailable.
	steal, ticks uint64
}

func takeSnapshot() snapshot {
	s := snapshot{counters: make(map[string]uint64, len(counterKeys))}
	for k, ck := range counterKeys {
		if ck.label != nil {
			s.counters[k] = telemetry.Default.Counter(ck.name, ck.label...).Value()
		} else {
			s.counters[k] = telemetry.Default.CounterValue(ck.name)
		}
	}
	s.conns = telemetry.Default.GaugeValue("pardis_transport_conns_open")
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.mallocs, s.bytes, s.gcs, s.pauseNs = ms.Mallocs, ms.TotalAlloc, uint64(ms.NumGC), ms.PauseTotalNs
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		s.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	s.steal, s.ticks = cpuTicks()
	return s
}

// cpuTicks reads the host's stolen and total CPU ticks from the
// aggregate line of /proc/stat.
func cpuTicks() (steal, total uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, x := range f[1:] {
		v, err := strconv.ParseUint(x, 10, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// stealShare is the share of the host's CPU time the hypervisor stole
// between two snapshots.
func stealShare(a, b snapshot) float64 {
	if b.ticks <= a.ticks {
		return 0
	}
	return float64(b.steal-a.steal) / float64(b.ticks-a.ticks)
}

// delta is the change of one counter between two snapshots.
func delta(a, b snapshot, key string) float64 { return float64(b.counters[key] - a.counters[key]) }

// heapSampler records the highest heap-in-use reading of
// runtime/metrics while it runs.
type heapSampler struct {
	stop chan struct{}
	done sync.WaitGroup
	peak uint64
}

const heapMetric = "/memory/classes/heap/objects:bytes"

func startHeapSampler(every time.Duration) *heapSampler {
	h := &heapSampler{stop: make(chan struct{})}
	h.done.Add(1)
	go func() {
		defer h.done.Done()
		s := []metrics.Sample{{Name: heapMetric}}
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			metrics.Read(s)
			if v := s[0].Value.Uint64(); v > h.peak {
				h.peak = v
			}
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// finish stops the sampler and returns the peak in bytes.
func (h *heapSampler) finish() uint64 {
	close(h.stop)
	h.done.Wait()
	return h.peak
}

// gauge samples a pair of integer readings at a fixed period and
// reports their means — used for the ORB admission gate, whose state
// is only visible as a point-in-time snapshot.
type gaugeSampler struct {
	stop    chan struct{}
	done    sync.WaitGroup
	n       int
	sumA    float64
	sumB    float64
	collect func() (a, b int)
}

func startGaugeSampler(every time.Duration, collect func() (a, b int)) *gaugeSampler {
	g := &gaugeSampler{stop: make(chan struct{}), collect: collect}
	g.done.Add(1)
	go func() {
		defer g.done.Done()
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-g.stop:
				return
			case <-t.C:
				a, b := g.collect()
				g.n++
				g.sumA += float64(a)
				g.sumB += float64(b)
			}
		}
	}()
	return g
}

func (g *gaugeSampler) finish() (meanA, meanB float64) {
	close(g.stop)
	g.done.Wait()
	if g.n == 0 {
		return 0, 0
	}
	return g.sumA / float64(g.n), g.sumB / float64(g.n)
}
