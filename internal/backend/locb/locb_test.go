package locb_test

import (
	"sync"
	"testing"

	"hamoffload/internal/backend/locb"
	"hamoffload/internal/core"
)

var lbAdd = core.NewFunc2[int64]("locb.add",
	func(c *core.Ctx, a, b int64) (int64, error) { return a + b, nil })

func TestPairBasics(t *testing.T) {
	hb, tb, err := locb.NewPair(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	if hb.Self() != 0 || tb.Self() != 1 {
		t.Errorf("Self = %d/%d", hb.Self(), tb.Self())
	}
	if hb.NumNodes() != 2 || tb.NumNodes() != 2 {
		t.Errorf("NumNodes = %d/%d", hb.NumNodes(), tb.NumNodes())
	}
	if d := hb.Descriptor(1); d.Device != "target" {
		t.Errorf("descriptor = %+v", d)
	}
	if d := hb.Descriptor(9); d.Name != "invalid" {
		t.Errorf("bad descriptor = %+v", d)
	}
}

func TestNewNValidation(t *testing.T) {
	if _, err := locb.NewN(1, 1<<20); err == nil {
		t.Error("1-node application accepted")
	}
	nodes, err := locb.NewN(4, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if len(nodes) != 4 {
		t.Fatalf("len(nodes) = %d", len(nodes))
	}
	for i, n := range nodes {
		if int(n.Self()) != i {
			t.Errorf("node %d has Self %d", i, n.Self())
		}
	}
}

func TestHandleValidation(t *testing.T) {
	hb, _, err := locb.NewPair(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := hb.Wait(42); err == nil {
		t.Error("foreign handle accepted by Wait")
	}
	if _, _, err := hb.Poll(42); err == nil {
		t.Error("foreign handle accepted by Poll")
	}
	if _, err := hb.Call(7, nil); err == nil {
		t.Error("Call to missing node accepted")
	}
	if err := hb.Put(7, nil, 0); err == nil {
		t.Error("Put to missing node accepted")
	}
	if err := hb.Get(7, 0, nil); err == nil {
		t.Error("Get from missing node accepted")
	}
}

func TestConcurrentPutsAndOffloads(t *testing.T) {
	// The loopback heap must tolerate host puts racing target dispatches.
	hb, tb, err := locb.NewPair(1 << 22)
	if err != nil {
		t.Fatal(err)
	}
	target := core.NewTarget(tb, "locb-t")
	host := core.NewRuntime(hb, "locb-h")
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := target.Serve(); err != nil {
			t.Errorf("Serve: %v", err)
		}
	}()
	buf, err := core.Allocate[int64](host, 1, 1024)
	if err != nil {
		t.Fatal(err)
	}
	var pwg sync.WaitGroup
	for g := 0; g < 4; g++ {
		pwg.Add(1)
		go func(g int) {
			defer pwg.Done()
			data := make([]int64, 64)
			for i := 0; i < 50; i++ {
				off, _ := buf.Offset(int64(g * 64))
				if err := core.Put(host, data, off); err != nil {
					t.Errorf("put: %v", err)
					return
				}
			}
		}(g)
	}
	for i := 0; i < 50; i++ {
		if v, err := core.Sync(host, 1, lbAdd.Bind(int64(i), 1)); err != nil || v != int64(i)+1 {
			t.Fatalf("offload %d = %d, %v", i, v, err)
		}
	}
	pwg.Wait()
	if err := host.Finalize(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
}
