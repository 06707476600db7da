// Tcpcluster: offloading over plain TCP/IP sockets — HAM-Offload's generic
// backend (§I-A), which "focuses on interoperability rather than
// performance" and "enables experiments like offloading over the internet,
// or between host and target combinations where MPI is not possible".
//
// The same binary plays both roles:
//
//	go run ./examples/tcpcluster                   # demo: both roles in-process,
//	                                               # still over a real socket
//	go run ./examples/tcpcluster -listen :9999     # target process
//	go run ./examples/tcpcluster -connect HOST:9999  # host process
//
// The host offloads a Monte-Carlo π estimator and a histogram kernel to the
// target and checks the results.
//
// Because deployment is "build the same application for every node", the
// offloaded functions below exist in both processes automatically — that is
// the HAM deployment model (§III-C).
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"
	"time"

	"hamoffload/internal/backend/tcpb"
	"hamoffload/offload"
)

// monteCarloPi estimates π from n pseudo-random points; the seed travels in
// the message so the result is reproducible wherever it runs.
var monteCarloPi = offload.NewFunc2[float64]("tcpcluster.pi",
	func(c *offload.Ctx, seed, n int64) (float64, error) {
		rng := rand.New(rand.NewSource(seed))
		hits := int64(0)
		for i := int64(0); i < n; i++ {
			x, y := rng.Float64(), rng.Float64()
			if x*x+y*y <= 1 {
				hits++
			}
		}
		return 4 * float64(hits) / float64(n), nil
	})

// histogram builds a 16-bucket histogram of a target-resident buffer.
var histogram = offload.NewFunc1[[]int64]("tcpcluster.histogram",
	func(c *offload.Ctx, buf offload.BufferPtr[float64]) ([]int64, error) {
		v, err := offload.ReadLocal(c, buf, 0, buf.Count)
		if err != nil {
			return nil, err
		}
		h := make([]int64, 16)
		for _, x := range v {
			b := int(x * 16)
			if b > 15 {
				b = 15
			}
			if b < 0 {
				b = 0
			}
			h[b]++
		}
		return h, nil
	})

func runTarget(addr string) {
	t, err := tcpb.Listen(addr, 1, 2, 1<<28)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("target: serving HAM-Offload on", t.Addr())
	rt := offload.NewTarget(t, "tcp-target-arch")
	if err := rt.Serve(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("target: terminated cleanly after", rt.Executed(), "messages")
}

func runHost(addr string) {
	b, err := tcpb.Dial([]string{addr}, 1<<24)
	if err != nil {
		log.Fatal(err)
	}
	rt := offload.NewRuntime(b, "tcp-host-arch")
	defer func() {
		if err := rt.Finalize(); err != nil {
			log.Fatal(err)
		}
	}()
	target := offload.NodeID(1)

	d, err := rt.Ping(target)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("host: connected to %s (%s)\n", d.Name, d.Device)

	// Offload π estimation; wall-clock timing, since this backend is real.
	start := time.Now()
	pi, err := offload.Sync(rt, target, monteCarloPi.Bind(7, 2_000_000))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("host: remote Monte-Carlo pi = %.4f (2e6 samples, %v round trip)\n",
		pi, time.Since(start).Round(time.Microsecond))
	if pi < 3.10 || pi > 3.18 {
		log.Fatalf("pi estimate out of range: %v", pi)
	}

	// Put data, offload a histogram over it.
	const n = 100_000
	data := make([]float64, n)
	rng := rand.New(rand.NewSource(99))
	for i := range data {
		data[i] = rng.Float64()
	}
	buf, err := offload.Allocate[float64](rt, target, n)
	if err != nil {
		log.Fatal(err)
	}
	if err := offload.Put(rt, data, buf); err != nil {
		log.Fatal(err)
	}
	hist, err := offload.Sync(rt, target, histogram.Bind(buf))
	if err != nil {
		log.Fatal(err)
	}
	total := int64(0)
	for _, c := range hist {
		total += c
	}
	if total != n {
		log.Fatalf("histogram sums to %d, want %d", total, n)
	}
	fmt.Printf("host: remote histogram over %d put elements: %v\n", n, hist)
	if err := offload.Free(rt, buf); err != nil {
		log.Fatal(err)
	}
}

func main() {
	listen := flag.String("listen", "", "run as target, listening on this address")
	connect := flag.String("connect", "", "run as host, offloading to this address")
	flag.Parse()

	switch {
	case *listen != "" && *connect != "":
		log.Fatal("pick one of -listen or -connect")
	case *listen != "":
		runTarget(*listen)
	case *connect != "":
		runHost(*connect)
	default:
		// Demo mode: both roles in this process, still over a real socket.
		t, err := tcpb.Listen("127.0.0.1:0", 1, 2, 1<<28)
		if err != nil {
			log.Fatal(err)
		}
		done := make(chan struct{})
		go func() {
			defer close(done)
			rt := offload.NewTarget(t, "tcp-target-arch")
			if err := rt.Serve(); err != nil {
				log.Fatal(err)
			}
		}()
		runHost(t.Addr())
		<-done
		fmt.Println("demo: host and target both exited cleanly")
	}
}
