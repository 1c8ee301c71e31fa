package main

import (
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"sort"
	"testing"
	"time"
)

// benchmarkNames reads the metric names BENCHMARK.json declares.
func benchmarkNames(t *testing.T) (endToEnd, perLayer []string) {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	for _, m := range spec.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range spec.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	return endToEnd, perLayer
}

// sameNames fails the test unless got holds exactly the names in want.
func sameNames(t *testing.T, what string, got map[string]metric, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d metrics, BENCHMARK.json declares %d", what, len(got), len(want))
	}
	for _, n := range want {
		if _, ok := got[n]; !ok {
			t.Errorf("%s: metric %s missing", what, n)
		}
	}
}

// TestWorkloadsCheckTheirOutputs runs every workload briefly on two
// seeds with correct handlers, which must pass every check, and with
// deliberately wrong handlers, whose operations must all be reported
// as failures.
func TestWorkloadsCheckTheirOutputs(t *testing.T) {
	for _, w := range workloads {
		for _, seed := range []int64{1, 2} {
			for _, wrong := range []bool{false, true} {
				cfg := runConfig{seed: seed, echoMaxDoubles: 32, wrong: wrong}
				st, err := w.setup(cfg, nil)
				if err != nil {
					t.Fatalf("%s seed %d: setup: %v", w.name, seed, err)
				}
				p := st.run(200 * time.Millisecond)
				st.close()
				bad := p.wrong + p.serverWrong
				switch {
				case p.ops == 0:
					t.Errorf("%s seed %d wrong=%v: no operations ran", w.name, seed, wrong)
				case !wrong && (p.failed() > 0 || bad > 0):
					t.Errorf("%s seed %d: %d of %d failed, %d wrong: %v", w.name, seed, p.failed(), p.ops, bad, p.lastErr)
				case wrong && (p.failed() != p.ops || bad == 0):
					t.Errorf("%s seed %d with a wrong handler: %d of %d failed, %d wrong", w.name, seed, p.failed(), p.ops, bad)
				}
			}
		}
	}
}

// TestTracedRunIsFaithful runs a short traced run of each workload and
// requires every fidelity cross-check to pass.
func TestTracedRunIsFaithful(t *testing.T) {
	_, perLayer := benchmarkNames(t)
	for _, w := range workloads {
		rep := report{Checks: map[string]check{}}
		res, err := runTraced(w, runConfig{seed: 3, echoMaxDoubles: 32}, 400*time.Millisecond, newTracer(), &rep)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !res.Correct || res.Failed > 0 {
			t.Errorf("%s: correct=%v failed=%d checks=%v", w.name, res.Correct, res.Failed, rep.Checks)
		}
		sameNames(t, w.name+" traced", res.Metrics, perLayer)
	}
}

// TestUntracedRunReportsEveryEndToEndMetric checks the untraced run's
// metric set against BENCHMARK.json, and that none of them reads zero.
func TestUntracedRunReportsEveryEndToEndMetric(t *testing.T) {
	endToEnd, _ := benchmarkNames(t)
	w, _ := findWorkload("echo")
	var rep report
	res, err := runUntraced(w, runConfig{seed: 4, echoMaxDoubles: 32}, 300*time.Millisecond, &rep)
	if err != nil {
		t.Fatal(err)
	}
	sameNames(t, "echo untraced", res.Metrics, endToEnd)
	for n, m := range res.Metrics {
		if m.Value <= 0 {
			t.Errorf("%s = %v, want > 0", n, m.Value)
		}
	}
}

func TestSelfTime(t *testing.T) {
	for _, c := range []struct {
		start, end int64
		children   [][2]int64
		want       int64
	}{
		{0, 100, nil, 100},
		{0, 100, [][2]int64{{10, 20}, {30, 50}}, 70},
		{0, 100, [][2]int64{{10, 40}, {30, 50}}, 60},    // overlapping children count once
		{0, 100, [][2]int64{{-10, 20}, {90, 120}}, 70},  // clipped to the parent
		{0, 100, [][2]int64{{20, 10}, {200, 300}}, 100}, // empty or outside
	} {
		if got := selfTime(c.start, c.end, c.children); got != c.want {
			t.Errorf("selfTime(%d, %d, %v) = %d, want %d", c.start, c.end, c.children, got, c.want)
		}
	}
}

// TestHistQuantiles checks the histogram's bucket arithmetic and that
// its quantiles stay within its resolution of the exact ones.
func TestHistQuantiles(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var h hist
	exact := make([]float64, 0, 100000)
	for i := 0; i < 100000; i++ {
		v := int64(math.Exp(rng.Float64()*20)) + int64(rng.Intn(3000))
		lo, width := histRange(histIndex(v))
		if f := float64(v); f < lo || f >= lo+width {
			t.Fatalf("value %d outside its bucket [%v, %v)", v, lo, lo+width)
		}
		h.add(v)
		exact = append(exact, float64(v))
	}
	sort.Float64s(exact)
	for _, q := range []float64{0, 0.1, 0.5, 0.9, 0.99, 0.999, 1} {
		r := q * float64(len(exact)-1)
		i := int(r)
		want := exact[i]
		if i+1 < len(exact) {
			want += (r - float64(i)) * (exact[i+1] - exact[i])
		}
		if got := h.quantile(q); math.Abs(got-want) > want/histSub+1 {
			t.Errorf("quantile(%v) = %v, exact %v", q, got, want)
		}
	}
}
