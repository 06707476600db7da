package tcpb_test

import (
	"strings"
	"sync"
	"testing"

	"hamoffload/internal/backend/tcpb"
	"hamoffload/internal/core"
)

var (
	tcpSquare = core.NewFunc1[int64]("tcpb.square",
		func(c *core.Ctx, x int64) (int64, error) { return x * x, nil })

	tcpSumBuf = core.NewFunc1[float64]("tcpb.sumbuf",
		func(c *core.Ctx, b core.BufferPtr[float64]) (float64, error) {
			v, err := core.ReadLocal(c, b, 0, b.Count)
			if err != nil {
				return 0, err
			}
			s := 0.0
			for _, x := range v {
				s += x
			}
			return s, nil
		})
)

// tcpApp starts a real TCP target on a random loopback port, dials it, and
// returns the host runtime plus a cleanup function.
func tcpApp(t *testing.T) (*core.Runtime, func()) {
	t.Helper()
	target, err := tcpb.Listen("127.0.0.1:0", 1, 2, 1<<24)
	if err != nil {
		t.Fatal(err)
	}
	targetRT := core.NewTarget(target, "tcp-target-arch")
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := targetRT.Serve(); err != nil {
			t.Errorf("target Serve: %v", err)
		}
	}()
	host, err := tcpb.Dial([]string{target.Addr()}, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	hostRT := core.NewRuntime(host, "tcp-host-arch")
	return hostRT, func() {
		if err := hostRT.Finalize(); err != nil {
			t.Errorf("Finalize: %v", err)
		}
		wg.Wait()
	}
}

func TestOffloadOverRealSockets(t *testing.T) {
	rt, done := tcpApp(t)
	defer done()
	v, err := core.Sync(rt, 1, tcpSquare.Bind(12))
	if err != nil {
		t.Fatalf("Sync: %v", err)
	}
	if v != 144 {
		t.Fatalf("square = %d", v)
	}
}

func TestAllocatePutOffloadGetOverTCP(t *testing.T) {
	rt, done := tcpApp(t)
	defer done()
	buf, err := core.Allocate[float64](rt, 1, 256)
	if err != nil {
		t.Fatal(err)
	}
	vals := make([]float64, 256)
	want := 0.0
	for i := range vals {
		vals[i] = float64(i)
		want += vals[i]
	}
	if err := core.Put(rt, vals, buf); err != nil {
		t.Fatal(err)
	}
	got, err := core.Sync(rt, 1, tcpSumBuf.Bind(buf))
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("sum = %v, want %v", got, want)
	}
	// Read back and verify Get too.
	back := make([]float64, 256)
	if err := core.Get(rt, buf, back); err != nil {
		t.Fatal(err)
	}
	for i := range vals {
		if back[i] != vals[i] {
			t.Fatalf("get mismatch at %d", i)
		}
	}
	if err := core.Free(rt, buf); err != nil {
		t.Fatal(err)
	}
}

func TestAsyncPipelineOverTCP(t *testing.T) {
	rt, done := tcpApp(t)
	defer done()
	futs := make([]*core.Future[int64], 16)
	for i := range futs {
		futs[i] = core.Async(rt, 1, tcpSquare.Bind(int64(i)))
	}
	for i, f := range futs {
		v, err := f.Get()
		if err != nil {
			t.Fatal(err)
		}
		if v != int64(i*i) {
			t.Fatalf("futs[%d] = %d", i, v)
		}
	}
}

func TestRemotePutGetErrors(t *testing.T) {
	rt, done := tcpApp(t)
	defer done()
	// Put to an unmapped address must propagate the remote fault.
	err := rt.Backend().Put(1, []byte{1, 2, 3}, 0xdeadbeef)
	if err == nil || !strings.Contains(err.Error(), "remote error") {
		t.Fatalf("put fault = %v", err)
	}
	err = rt.Backend().Get(1, 0xdeadbeef, make([]byte, 8))
	if err == nil || !strings.Contains(err.Error(), "remote error") {
		t.Fatalf("get fault = %v", err)
	}
	// The connection stays usable after remote errors.
	if _, err := core.Sync(rt, 1, tcpSquare.Bind(3)); err != nil {
		t.Fatalf("offload after faults: %v", err)
	}
}

func TestPingDescriptorOverTCP(t *testing.T) {
	rt, done := tcpApp(t)
	defer done()
	d, err := rt.Ping(1)
	if err != nil {
		t.Fatal(err)
	}
	if d.Arch != "tcp-target" || d.Name != "tcp1" {
		t.Errorf("descriptor = %+v", d)
	}
}

// TestRecoverNodeUnsupported pins that the TCP host refuses recovery (it
// cannot redial) with its own error, and that the refusal leaves the live
// connection usable.
func TestRecoverNodeUnsupported(t *testing.T) {
	rt, done := tcpApp(t)
	defer done()
	if err := rt.RecoverNode(1); err == nil || !strings.Contains(err.Error(), "tcpb: node 1 cannot be recovered") {
		t.Errorf("RecoverNode = %v", err)
	}
	if _, err := core.Sync(rt, 1, tcpSquare.Bind(3)); err != nil {
		t.Fatalf("offload after refused recovery: %v", err)
	}
}

func TestListenValidation(t *testing.T) {
	if _, err := tcpb.Listen("127.0.0.1:0", 0, 2, 1<<20); err == nil {
		t.Error("rank 0 target accepted")
	}
	if _, err := tcpb.Listen("127.0.0.1:0", 2, 2, 1<<20); err == nil {
		t.Error("rank == total accepted")
	}
	if _, err := tcpb.Dial(nil, 1<<20); err == nil {
		t.Error("empty address list accepted")
	}
	if _, err := tcpb.Dial([]string{"127.0.0.1:1"}, 1<<20); err == nil {
		t.Error("dial to closed port succeeded")
	}
}

// BenchmarkTCPOffloadRoundTrip measures the real (wall-clock) offload cost
// over loopback TCP — the portability-over-performance backend.
func BenchmarkTCPOffloadRoundTrip(b *testing.B) {
	target, err := tcpb.Listen("127.0.0.1:0", 1, 2, 1<<24)
	if err != nil {
		b.Fatal(err)
	}
	targetRT := core.NewTarget(target, "tcp-bench-target")
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = targetRT.Serve()
	}()
	host, err := tcpb.Dial([]string{target.Addr()}, 1<<20)
	if err != nil {
		b.Fatal(err)
	}
	rt := core.NewRuntime(host, "tcp-bench-host")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Sync(rt, 1, tcpSquare.Bind(int64(i))); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if err := rt.Finalize(); err != nil {
		b.Fatal(err)
	}
	<-done
}

// BenchmarkTCPPut1MiB measures the bulk data path over loopback TCP.
func BenchmarkTCPPut1MiB(b *testing.B) {
	target, err := tcpb.Listen("127.0.0.1:0", 1, 2, 1<<26)
	if err != nil {
		b.Fatal(err)
	}
	targetRT := core.NewTarget(target, "tcp-bench-target2")
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = targetRT.Serve()
	}()
	host, err := tcpb.Dial([]string{target.Addr()}, 1<<20)
	if err != nil {
		b.Fatal(err)
	}
	rt := core.NewRuntime(host, "tcp-bench-host2")
	buf, err := core.Allocate[float64](rt, 1, 1<<17)
	if err != nil {
		b.Fatal(err)
	}
	data := make([]float64, 1<<17)
	b.SetBytes(1 << 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := core.Put(rt, data, buf); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if err := rt.Finalize(); err != nil {
		b.Fatal(err)
	}
	<-done
}
