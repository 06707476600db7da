package offload_test

import (
	"fmt"
	"log"

	"hamoffload/internal/backend/locb"
	"hamoffload/offload"
)

// Offloadable functions are registered at package level — the analog of the
// C++ template instantiation that puts identical handler tables into the
// host and target binaries.
var (
	exDot = offload.NewFunc3[float64]("example.dot",
		func(c *offload.Ctx, a, b offload.BufferPtr[float64], n int64) (float64, error) {
			av, err := offload.ReadLocal(c, a, 0, n)
			if err != nil {
				return 0, err
			}
			bv, err := offload.ReadLocal(c, b, 0, n)
			if err != nil {
				return 0, err
			}
			r := 0.0
			for i := range av {
				r += av[i] * bv[i]
			}
			return r, nil
		})

	exGreet = offload.NewFunc1[string]("example.greet",
		func(c *offload.Ctx, name string) (string, error) {
			return "hello, " + name, nil
		})

	// exStats shows a custom composite argument implementing Marshaler.
	exStats = offload.NewFunc1[float64]("example.stats",
		func(c *offload.Ctx, w window) (float64, error) {
			return (w.Hi - w.Lo) * w.Scale, nil
		})
)

// window is a user-defined argument type with its own wire format:
// implement Marshaler with pointer receivers, offload by value.
type window struct {
	Lo, Hi, Scale float64
}

func (w *window) EncodeHAM(e *offload.Encoder) {
	e.PutF64(w.Lo)
	e.PutF64(w.Hi)
	e.PutF64(w.Scale)
}

func (w *window) DecodeHAM(d *offload.Decoder) {
	w.Lo = d.F64()
	w.Hi = d.F64()
	w.Scale = d.F64()
}

// ExampleMarshaler offloads a function taking a user-defined composite
// argument — the Go analog of HAM's per-type serialisation hooks.
func ExampleMarshaler() {
	rt, shutdown := startApp()
	defer shutdown()

	v, err := offload.Sync(rt, 1, exStats.Bind(window{Lo: 2, Hi: 10, Scale: 0.5}))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(v)
	// Output: 4
}

// startApp wires a two-node loopback application and returns the host
// runtime plus a shutdown function. Real programs use machine.ConnectDMA
// (simulated SX-Aurora) or the TCP backend instead of the loopback.
func startApp() (*offload.Runtime, func()) {
	hostB, targetB, err := locb.NewPair(1 << 22)
	if err != nil {
		log.Fatal(err)
	}
	target := offload.NewTarget(targetB, "example-target")
	host := offload.NewRuntime(hostB, "example-host")
	done := make(chan struct{})
	go func() {
		defer close(done)
		if err := target.Serve(); err != nil {
			log.Fatal(err)
		}
	}()
	return host, func() {
		if err := host.Finalize(); err != nil {
			log.Fatal(err)
		}
		<-done
	}
}

// Example_innerProduct ports the paper's Fig. 2 program: allocate target
// memory, transfer inputs, offload asynchronously, synchronise on a future.
func Example_innerProduct() {
	rt, shutdown := startApp()
	defer shutdown()

	const n = 4
	target := offload.NodeID(1)
	aT, _ := offload.Allocate[float64](rt, target, n)
	bT, _ := offload.Allocate[float64](rt, target, n)
	_ = offload.Put(rt, []float64{1, 2, 3, 4}, aT)
	_ = offload.Put(rt, []float64{10, 20, 30, 40}, bT)

	future := offload.Async(rt, target, exDot.Bind(aT, bT, n))
	// ... the host could work here while the target computes ...
	result, err := future.Get()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(result)
	// Output: 300
}

// ExampleSync performs a blocking offload of a string-processing function.
func ExampleSync() {
	rt, shutdown := startApp()
	defer shutdown()

	greeting, err := offload.Sync(rt, 1, exGreet.Bind("aurora"))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(greeting)
	// Output: hello, aurora
}

// ExampleGet transfers data back from target memory.
func ExampleGet() {
	rt, shutdown := startApp()
	defer shutdown()

	buf, _ := offload.Allocate[int32](rt, 1, 3)
	_ = offload.Put(rt, []int32{7, 8, 9}, buf)
	out := make([]int32, 3)
	_ = offload.Get(rt, buf, out)
	fmt.Println(out)
	// Output: [7 8 9]
}
