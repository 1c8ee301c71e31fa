package tune

import (
	"math"
	"testing"
	"time"

	"pardis/internal/telemetry"
)

// testTuner builds a tuner on an isolated registry with an injectable
// clock starting at t0.
func testTuner(t *testing.T, cfg Config) (*Tuner, *time.Time, *telemetry.Registry) {
	t.Helper()
	now := time.Unix(1000, 0)
	reg := telemetry.NewRegistry()
	cfg.Now = func() time.Time { return now }
	cfg.Registry = reg
	tu := New(cfg)
	return tu, &now, reg
}

// TestEWMAConvergence: a synthetic trace of constant-rate transfers
// must converge the bandwidth estimate to the true rate, and the
// recommendation must hit the BDP-derived fixed point.
func TestEWMAConvergence(t *testing.T) {
	tu, now, _ := testTuner(t, Config{parallelFloor: 4})
	ep := "tcp:10.0.0.1:9100"
	const bw = 125e6 // 1 Gb/s
	const rtt = 40 * time.Millisecond

	tu.Probe(ep, rtt)
	if _, ok := tu.Recommend(ep); ok {
		t.Fatal("recommendation before any transfer sample")
	}
	// Realistic wall clocks: streaming time plus the one-RTT
	// fill/drain tail Record de-biases away.
	for i := 0; i < 20; i++ {
		*now = now.Add(time.Second)
		wall := float64(8<<20)/bw + rtt.Seconds()
		tu.Record(ep, 8<<20, time.Duration(wall*float64(time.Second)))
	}

	st := tu.Snapshot()
	if len(st) != 1 {
		t.Fatalf("snapshot paths = %d, want 1", len(st))
	}
	if math.Abs(st[0].BandwidthBps-bw)/bw > 0.01 {
		t.Fatalf("bandwidth estimate %.3g, want ~%.3g", st[0].BandwidthBps, bw)
	}
	if math.Abs(st[0].RTTSeconds-rtt.Seconds())/rtt.Seconds() > 0.01 {
		t.Fatalf("rtt estimate %.3g, want ~%.3g", st[0].RTTSeconds, rtt.Seconds())
	}

	rec, ok := tu.Recommend(ep)
	if !ok {
		t.Fatal("no recommendation after 20 samples")
	}
	// BDP = 125e6 * 0.04 = 5 MB: the chunk must sit at the retention
	// cap and the window must cover BDP/chunk with headroom.
	if rec.XferChunkBytes != DefaultMaxChunkBytes {
		t.Errorf("chunk = %d, want cap %d", rec.XferChunkBytes, DefaultMaxChunkBytes)
	}
	if want := int(math.Ceil(WindowHeadroom*5e6/float64(1<<20))) + 1; rec.XferWindow != want {
		t.Errorf("window = %d, want %d", rec.XferWindow, want)
	}
	if rec.Stripes < 4 || rec.Stripes > DefaultMaxStripes {
		t.Errorf("stripes = %d out of [4,%d]", rec.Stripes, DefaultMaxStripes)
	}
}

// TestRecommendationFloorsAtStatic: a slow short path must still get
// at least the static defaults — tuning never configures below them.
func TestRecommendationFloorsAtStatic(t *testing.T) {
	tu, now, _ := testTuner(t, Config{parallelFloor: 4})
	ep := "inproc:a"
	tu.Probe(ep, 100*time.Microsecond)
	for i := 0; i < 5; i++ {
		*now = now.Add(time.Second)
		tu.Record(ep, 1<<10, time.Millisecond) // ~1 MB/s
	}
	rec, ok := tu.Recommend(ep)
	if !ok {
		t.Fatal("no recommendation")
	}
	if rec.XferChunkBytes < DefaultMinChunkBytes {
		t.Errorf("chunk %d below static floor %d", rec.XferChunkBytes, DefaultMinChunkBytes)
	}
	if rec.XferWindow < 4 {
		t.Errorf("window %d below parallel floor 4", rec.XferWindow)
	}
	if rec.Stripes < min(4, rec.Stripes) {
		t.Errorf("stripes %d below static width", rec.Stripes)
	}
}

// TestHysteresisNoFlap: samples jittering within the hysteresis band
// must never change the recommendation, and the update counter must
// record exactly the initial derivation.
func TestHysteresisNoFlap(t *testing.T) {
	tu, now, reg := testTuner(t, Config{parallelFloor: 4})
	ep := "tcp:10.0.0.2:9100"
	tu.Probe(ep, 10*time.Millisecond)
	const bw = 500e6
	// Converge first.
	for i := 0; i < 10; i++ {
		*now = now.Add(time.Second)
		tu.Record(ep, 4<<20, time.Duration(float64(4<<20)/bw*float64(time.Second)))
	}
	first, ok := tu.Recommend(ep)
	if !ok {
		t.Fatal("no recommendation after convergence")
	}
	updatesBefore := reg.CounterValue("pardis_tune_updates_total")

	// ±15% noise around the converged rate: inside the 25% band, so
	// the EWMA (which moves a fraction of even that) must never cross
	// the hysteresis threshold.
	for i := 0; i < 200; i++ {
		*now = now.Add(time.Second)
		f := 1.0 + 0.15*float64(1-2*(i%2)) // alternate +15% / -15%
		d := time.Duration(float64(4<<20) / (bw * f) * float64(time.Second))
		tu.Record(ep, 4<<20, d)
		rec, _ := tu.Recommend(ep)
		if rec != first {
			t.Fatalf("recommendation flapped at sample %d: %+v -> %+v", i, first, rec)
		}
	}
	if got := reg.CounterValue("pardis_tune_updates_total"); got != updatesBefore {
		t.Errorf("updates counter moved %d -> %d under in-band noise", updatesBefore, got)
	}
}

// TestHysteresisTracksRealShift: a genuine order-of-magnitude path
// change must push through the hysteresis band and re-derive.
func TestHysteresisTracksRealShift(t *testing.T) {
	tu, now, _ := testTuner(t, Config{parallelFloor: 4})
	ep := "tcp:10.0.0.3:9100"
	tu.Probe(ep, 40*time.Millisecond)
	for i := 0; i < 10; i++ {
		*now = now.Add(time.Second)
		tu.Record(ep, 1<<20, time.Duration(float64(1<<20)/10e6*float64(time.Second))) // 10 MB/s
	}
	before, _ := tu.Recommend(ep)
	for i := 0; i < 20; i++ {
		*now = now.Add(time.Second)
		tu.Record(ep, 8<<20, time.Duration(float64(8<<20)/500e6*float64(time.Second))) // 500 MB/s
	}
	after, ok := tu.Recommend(ep)
	if !ok {
		t.Fatal("no recommendation")
	}
	if after.XferWindow <= before.XferWindow {
		t.Errorf("window did not grow across a 50x bandwidth shift: %+v -> %+v", before, after)
	}
}

// TestIdleReset: after an idle gap longer than DefaultIdleReset the next
// sample must replace the estimate instead of averaging into it.
func TestIdleReset(t *testing.T) {
	tu, now, _ := testTuner(t, Config{parallelFloor: 4})
	ep := "tcp:10.0.0.4:9100"
	for i := 0; i < 5; i++ {
		*now = now.Add(time.Second)
		tu.Record(ep, 1<<20, time.Duration(float64(1<<20)/1e9*float64(time.Second))) // 1 GB/s
	}
	*now = now.Add(time.Hour)                                                     // path idle far past the reset window
	tu.Record(ep, 1<<20, time.Duration(float64(1<<20)/10e6*float64(time.Second))) // 10 MB/s
	st := tu.Snapshot()[0]
	if math.Abs(st.BandwidthBps-10e6)/10e6 > 0.01 {
		t.Fatalf("post-idle estimate %.3g, want re-seeded ~1e7 (stale EWMA leaked through)", st.BandwidthBps)
	}
}

// TestPoolCounterReset: the pool hit-rate signal reads cumulative
// process counters; a counter that moves backwards (registry reset)
// must clamp to a zero delta, not underflow or poison the model.
func TestPoolCounterReset(t *testing.T) {
	tu, now, reg := testTuner(t, Config{parallelFloor: 4})
	ep := "tcp:10.0.0.5:9100"
	gets := reg.Counter("pardis_giop_pool_gets_total", "pool", "enc")
	misses := reg.Counter("pardis_giop_pool_misses_total", "pool", "enc")
	gets.Add(1000)
	misses.Add(10)
	for i := 0; i < 5; i++ {
		*now = now.Add(time.Second)
		tu.Record(ep, 8<<20, 10*time.Millisecond)
	}
	before, ok := tu.Recommend(ep)
	if !ok {
		t.Fatal("no recommendation")
	}

	// Simulate a counter reset: the registry starts over, so the next
	// reads are far below the remembered baselines.
	reg.Reset()
	reg.Counter("pardis_giop_pool_gets_total", "pool", "enc").Add(5)
	for i := 0; i < 5; i++ {
		*now = now.Add(time.Second)
		tu.Record(ep, 8<<20, 10*time.Millisecond)
	}
	after, ok := tu.Recommend(ep)
	if !ok {
		t.Fatal("recommendation lost after counter reset")
	}
	if after != before {
		t.Errorf("counter reset changed the recommendation: %+v -> %+v", before, after)
	}
}

// TestPoolBackoff: a sustained low pool hit rate with the chunk at its
// cap must back the chunk off one step.
func TestPoolBackoff(t *testing.T) {
	tu, now, reg := testTuner(t, Config{parallelFloor: 4})
	ep := "tcp:10.0.0.6:9100"
	tu.Probe(ep, 40*time.Millisecond)
	gets := reg.Counter("pardis_giop_pool_gets_total", "pool", "enc")
	misses := reg.Counter("pardis_giop_pool_misses_total", "pool", "enc")
	for i := 0; i < 40; i++ {
		*now = now.Add(time.Second)
		gets.Add(100)
		misses.Add(90) // 10% hit rate: retention is failing
		tu.Record(ep, 8<<20, time.Duration(float64(8<<20)/500e6*float64(time.Second)))
	}
	rec, ok := tu.Recommend(ep)
	if !ok {
		t.Fatal("no recommendation")
	}
	if rec.XferChunkBytes >= DefaultMaxChunkBytes {
		t.Errorf("chunk %d did not back off from the cap under a failing pool", rec.XferChunkBytes)
	}
	if rec.XferChunkBytes < DefaultMinChunkBytes {
		t.Errorf("chunk %d backed off below the static floor", rec.XferChunkBytes)
	}
}

// TestRecordIgnoresDegenerateSamples: zero bytes or non-positive
// durations must not corrupt the estimate.
func TestRecordIgnoresDegenerateSamples(t *testing.T) {
	tu, now, _ := testTuner(t, Config{parallelFloor: 4})
	ep := "tcp:10.0.0.7:9100"
	tu.Record(ep, 0, time.Second)
	tu.Record(ep, 1<<20, 0)
	tu.Record(ep, 1<<20, -time.Second)
	if st := tu.Snapshot(); len(st) != 0 {
		t.Fatalf("degenerate samples created %d paths", len(st))
	}
	for i := 0; i < 5; i++ {
		*now = now.Add(time.Second)
		tu.Record(ep, 1<<20, time.Millisecond)
	}
	if _, ok := tu.Recommend(ep); !ok {
		t.Fatal("valid samples after degenerate ones did not recover")
	}
}
