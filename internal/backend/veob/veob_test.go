package veob_test

import (
	"errors"
	"strings"
	"testing"

	"hamoffload/internal/backend/veob"
	"hamoffload/internal/core"
	"hamoffload/internal/dma"
	"hamoffload/internal/faults"
	"hamoffload/internal/hostmem"
	"hamoffload/internal/pcie"
	"hamoffload/internal/simtime"
	"hamoffload/internal/topology"
	"hamoffload/internal/units"
	"hamoffload/internal/vemem"
	"hamoffload/internal/veos"
)

// Offloadable test functions.
var (
	vbEcho = core.NewFunc1[int64]("veob.echo",
		func(c *core.Ctx, v int64) (int64, error) { return v, nil })

	vbBig = core.NewFunc1[[]float64]("veob.big",
		func(c *core.Ctx, n int64) ([]float64, error) {
			out := make([]float64, n)
			for i := range out {
				out[i] = float64(i)
			}
			return out, nil
		})

	vbWide = core.NewFunc1[string]("veob.wide",
		func(c *core.Ctx, s string) (string, error) { return s, nil })
)

// rig assembles a one-VE machine for backend-level tests.
type rig struct {
	eng  *simtime.Engine
	card *veos.Card
}

func newRig(t *testing.T, plan *faults.Plan) *rig {
	t.Helper()
	eng := simtime.NewEngine()
	tm := topology.DefaultTiming()
	if plan != nil {
		tm.Faults = faults.New(plan)
	}
	host, err := hostmem.New("vh", 2*units.GiB, tm.HostPageSize)
	if err != nil {
		t.Fatal(err)
	}
	veMem, err := vemem.New("ve0", 4*units.GiB)
	if err != nil {
		t.Fatal(err)
	}
	fab, err := pcie.NewFabric(eng, topology.A300_8(), tm)
	if err != nil {
		t.Fatal(err)
	}
	path, err := fab.PathFrom(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	return &rig{eng: eng, card: veos.NewCard(eng, 0, tm, host, veMem, path, dma.TranslateBulk4DMA)}
}

func (r *rig) run(t *testing.T, fn func(p *simtime.Proc, rt *core.Runtime)) {
	t.Helper()
	r.eng.Spawn("vh-main", func(p *simtime.Proc) {
		b, err := veob.Connect(p, []*veos.Card{r.card}, veob.Options{})
		if err != nil {
			t.Errorf("Connect: %v", err)
			r.eng.Stop()
			return
		}
		rt := core.NewRuntime(b, "x86_64-test")
		fn(p, rt)
		if err := rt.Finalize(); err != nil {
			t.Errorf("Finalize: %v", err)
		}
		r.eng.Stop()
	})
	if err := r.eng.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	r.eng.Shutdown()
}

func TestSlotWraparound(t *testing.T) {
	// Far more offloads than slots: sequence numbers must keep messages and
	// results correctly paired across many slot reuses.
	r := newRig(t, nil)
	r.run(t, func(p *simtime.Proc, rt *core.Runtime) {
		for i := int64(0); i < 50; i++ {
			v, err := core.Sync(rt, 1, vbEcho.Bind(i))
			if err != nil {
				t.Fatalf("offload %d: %v", i, err)
			}
			if v != i {
				t.Fatalf("offload %d returned %d", i, v)
			}
		}
	})
}

func TestDeepAsyncPipeline(t *testing.T) {
	// More outstanding offloads than slots: Call must transparently drain
	// the oldest handle of a reused slot, and out-of-order Gets must work.
	r := newRig(t, nil)
	r.run(t, func(p *simtime.Proc, rt *core.Runtime) {
		const depth = 20 // > 8 slots
		futs := make([]*core.Future[int64], depth)
		for i := range futs {
			futs[i] = core.Async(rt, 1, vbEcho.Bind(int64(i)))
		}
		// Harvest newest-first to exercise out-of-order completion.
		for i := depth - 1; i >= 0; i-- {
			v, err := futs[i].Get()
			if err != nil {
				t.Fatalf("future %d: %v", i, err)
			}
			if v != int64(i) {
				t.Fatalf("future %d = %d", i, v)
			}
		}
	})
}

func TestLargeResultOverflowPath(t *testing.T) {
	// 300 float64 = 2400 B: beyond the 248 B inline area, within bufSize.
	r := newRig(t, nil)
	r.run(t, func(p *simtime.Proc, rt *core.Runtime) {
		out, err := core.Sync(rt, 1, vbBig.Bind(int64(300)))
		if err != nil {
			t.Fatal(err)
		}
		if len(out) != 300 || out[299] != 299 {
			t.Fatalf("len=%d last=%v", len(out), out[len(out)-1])
		}
	})
}

func TestOversizedResultFailsGracefully(t *testing.T) {
	// A result bigger than inline+bufSize cannot be returned; the offload
	// must fail with a protocol error, not corrupt the channel.
	r := newRig(t, nil)
	r.run(t, func(p *simtime.Proc, rt *core.Runtime) {
		_, err := core.Sync(rt, 1, vbBig.Bind(int64(10000))) // 80 KB
		if err == nil || !strings.Contains(err.Error(), "exceeds the send buffer") {
			t.Fatalf("err = %v", err)
		}
		// Channel still alive afterwards.
		if v, err := core.Sync(rt, 1, vbEcho.Bind(7)); err != nil || v != 7 {
			t.Fatalf("offload after overflow: %v, %v", v, err)
		}
	})
}

func TestOversizedMessageRejected(t *testing.T) {
	r := newRig(t, nil)
	r.run(t, func(p *simtime.Proc, rt *core.Runtime) {
		big := strings.Repeat("x", 8000) // message > 4 KiB buffer
		_, err := core.Sync(rt, 1, vbWide.Bind(big))
		if err == nil || !strings.Contains(err.Error(), "exceeds buffer size") {
			t.Fatalf("err = %v", err)
		}
	})
}

func TestTargetCannotInitiate(t *testing.T) {
	// The VEO protocol is strictly host-initiated: the VE runs a serving
	// runtime, whose offloads core refuses, naming the node.
	probe := core.NewFunc0[string]("veob.reverse_probe",
		func(c *core.Ctx) (string, error) {
			_, err := c.Runtime().Backend().Call(0, []byte{0, 0, 0, 0})
			if err == nil {
				return "", nil
			}
			return err.Error(), nil
		})
	r := newRig(t, nil)
	r.run(t, func(p *simtime.Proc, rt *core.Runtime) {
		msg, err := core.Sync(rt, 1, probe.Bind())
		if err != nil {
			t.Fatal(err)
		}
		if !strings.HasPrefix(msg, "core: node 1 ") {
			t.Fatalf("target-side Call error = %q", msg)
		}
	})
}

func TestConnectValidation(t *testing.T) {
	eng := simtime.NewEngine()
	eng.Spawn("main", func(p *simtime.Proc) {
		if _, err := veob.Connect(p, nil, veob.Options{}); err == nil {
			t.Error("Connect with no cards accepted")
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestHostBackendSurface(t *testing.T) {
	r := newRig(t, nil)
	r.run(t, func(p *simtime.Proc, rt *core.Runtime) {
		b := rt.Backend()
		if b.Self() != 0 || b.NumNodes() != 2 {
			t.Errorf("Self/NumNodes = %d/%d", b.Self(), b.NumNodes())
		}
		if d := b.Descriptor(1); d.Device != "NEC VE Type 10B" {
			t.Errorf("descriptor = %+v", d)
		}
		if d := b.Descriptor(99); d.Name != "invalid" {
			t.Errorf("bad descriptor = %+v", d)
		}
		if err := rt.Serve(); err == nil {
			t.Error("host Serve should fail")
		}
		if _, err := b.Call(5, nil); err == nil {
			t.Error("Call to missing node accepted")
		}
		if _, err := b.Wait("bogus"); err == nil {
			t.Error("foreign handle accepted by Wait")
		}
		if _, _, err := b.Poll("bogus"); err == nil {
			t.Error("foreign handle accepted by Poll")
		}
	})
}

func TestWaitTimesOutThroughPollFaults(t *testing.T) {
	// Every poll read after the Call fails transiently, for far longer than
	// the timeout. The ring absorbs each fault as a miss, but must still
	// check OffloadTimeout after it: Wait gives up at 1 ms instead of
	// returning the result once the fault window closes.
	r := newRig(t, &faults.Plan{Rules: []faults.Rule{
		// Ops 0 and 1 are the Call's message and flag writes.
		{Kind: faults.DMAError, Site: faults.SitePrivDMA, Node: 0, AfterOp: 2, Count: 5000},
	}})
	inj := r.card.Timing.Faults
	r.eng.Spawn("vh-main", func(p *simtime.Proc) {
		defer r.eng.Stop()
		h, err := veob.Connect(p, []*veos.Card{r.card}, veob.Options{OffloadTimeout: simtime.Millisecond})
		if err != nil {
			t.Errorf("Connect: %v", err)
			return
		}
		defer func() { _ = h.Close() }()
		hd, err := h.Call(1, []byte{0, 0, 0, 0})
		if err != nil {
			t.Errorf("Call: %v", err)
			return
		}
		start := p.Now()
		if _, err := h.Wait(hd); !errors.Is(err, core.ErrOffloadTimeout) {
			t.Errorf("Wait through poll faults = %v (want ErrOffloadTimeout)", err)
		}
		if took := p.Now().Sub(start); took < simtime.Millisecond || took > 2*simtime.Millisecond {
			t.Errorf("Wait gave up after %v (want just past 1ms)", took)
		}
		if inj.Injected() < 10 {
			t.Errorf("only %d poll faults injected", inj.Injected())
		}
	})
	if err := r.eng.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	r.eng.Shutdown()
}

// TestTargetStateReleased pins that a VE process's target state lives only
// while its ham_main runs: Finalize ends the serve loop and the entry goes,
// so machines built one after another in a process do not accumulate.
func TestTargetStateReleased(t *testing.T) {
	before := veob.LiveTargets()
	r := newRig(t, nil)
	r.run(t, func(p *simtime.Proc, rt *core.Runtime) {
		if _, err := core.Sync(rt, 1, vbEcho.Bind(1)); err != nil {
			t.Fatal(err)
		}
		if n := veob.LiveTargets(); n != before+1 {
			t.Errorf("serving: %d target states, want %d", n, before+1)
		}
	})
	if n := veob.LiveTargets(); n != before {
		t.Errorf("after Finalize: %d target states, want %d", n, before)
	}
}
