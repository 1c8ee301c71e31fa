package spmd

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"testing"

	"pardis/internal/mp"
	"pardis/internal/orb"
	"pardis/internal/rts"
)

// TestAutoTuneEndToEnd runs the diffusion invocation with AutoTune on
// both sides: results must stay element-exact while the shared tuner
// accumulates the bind-time RTT probe and per-transfer samples for the
// object's path, proving the re-resolution loop is actually engaged.
func TestAutoTuneEndToEnd(t *testing.T) {
	reg := newReg()
	obj := startObjectCfg(t, reg, 3, true, diffusionOps, func(cfg *ObjectConfig) {
		cfg.Transfer.AutoTune = true
	})
	defer obj.close()
	err := mp.Run(2, func(proc *mp.Proc) error {
		th := rts.NewMessagePassing(proc)
		b, err := Bind(context.Background(), BindConfig{
			Thread: th, Registry: reg, Method: MultiPort,
			ListenEndpoint: "inproc:*",
			Transfer:       Transfer{AutoTune: true},
		}, obj.ref)
		if err != nil {
			return err
		}
		defer b.Close()
		if !b.xfer.autoTune {
			return fmt.Errorf("rank %d: binding did not resolve AutoTune on", th.Rank())
		}
		// Enough invocations (and bytes) for the tuner to pass its
		// MinSamples gate and start re-deriving knobs mid-run; every
		// invocation still verifies element-exact results.
		for i := 0; i < 6; i++ {
			if err := invokeDiffusion(b, th, 40000, 1); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	key := obj.ref.Endpoints[0]
	found := false
	for _, st := range AutoTuner.Snapshot() {
		if st.Endpoint != key {
			continue
		}
		found = true
		if st.Samples == 0 {
			t.Errorf("path %s recorded no transfer samples", key)
		}
		if st.RTTSeconds <= 0 {
			t.Errorf("path %s has no RTT estimate — the bind-time probe never fired", key)
		}
	}
	if !found {
		t.Fatalf("shared tuner has no path for %s", key)
	}
}

// TestZeroTransferIsStatic: the zero Transfer resolves to the static
// defaults (window orb.DefaultStripeWidth(), 256 KiB chunks, tuning
// off), and a zero-valued multi-port bind and export running an inout
// call never touch the shared tuner — no path appears for the object's
// or the client's endpoints. TCP loopback endpoints keep the check
// clear of inproc names other tests' tuned runs may have used.
func TestZeroTransferIsStatic(t *testing.T) {
	r := Transfer{}.Resolve()
	if r.Window != orb.DefaultStripeWidth() || r.ChunkBytes != 256<<10 || r.AutoTune {
		t.Fatalf("zero Transfer resolves to %+v, want window %d, %d-byte chunks, tuning off",
			r, orb.DefaultStripeWidth(), 256<<10)
	}

	reg := newReg()
	obj := startObjectCfg(t, reg, 3, true, diffusionOps, func(cfg *ObjectConfig) {
		cfg.ListenEndpoint = "tcp:127.0.0.1:0"
	})
	defer obj.close()
	eps := append([]string(nil), obj.ref.Endpoints...)
	var mu sync.Mutex
	err := mp.Run(2, func(proc *mp.Proc) error {
		th := rts.NewMessagePassing(proc)
		b, err := Bind(context.Background(), BindConfig{
			Thread: th, Registry: reg, Method: MultiPort,
			ListenEndpoint: "tcp:127.0.0.1:0",
		}, obj.ref)
		if err != nil {
			return err
		}
		defer b.Close()
		mu.Lock()
		eps = append(eps, b.recvEP)
		mu.Unlock()
		return invokeDiffusion(b, th, 40000, 1)
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range AutoTuner.Snapshot() {
		if slices.Contains(eps, st.Endpoint) {
			t.Errorf("untuned transfer created tuner path %+v", st)
		}
	}
}
