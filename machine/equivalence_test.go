package machine_test

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"hamoffload/internal/backend/locb"
	"hamoffload/machine"
	"hamoffload/offload"
)

// This file checks the paper's central portability claim mechanically: "We
// could verify that they worked as expected without changing the application
// code" (§V). A randomly generated operation sequence — allocations, frees,
// puts, gets, sync and async offloads — is executed against the in-process
// loopback backend (the oracle) and against both SX-Aurora protocols on the
// simulated machine; every observable value must match exactly.

var eqFMA = offload.NewFunc3[float64]("equiv.fma",
	func(c *offload.Ctx, buf offload.BufferPtr[float64], scale float64, add float64) (float64, error) {
		v, err := offload.ReadLocal(c, buf, 0, buf.Count)
		if err != nil {
			return 0, err
		}
		sum := 0.0
		for i := range v {
			v[i] = v[i]*scale + add
			sum += v[i]
		}
		if err := offload.WriteLocal(c, buf, 0, v); err != nil {
			return 0, err
		}
		return sum, nil
	})

// opScript runs a deterministic pseudo-random workload against rt and
// returns the trace of every observable value.
func opScript(seed int64, rt *offload.Runtime) ([]float64, error) {
	rng := rand.New(rand.NewSource(seed))
	var obs []float64
	var bufs []offload.BufferPtr[float64]
	var futs []*offload.Future[float64]

	drain := func() error {
		for _, f := range futs {
			v, err := f.Get()
			if err != nil {
				return err
			}
			obs = append(obs, v)
		}
		futs = nil
		return nil
	}

	for step := 0; step < 60; step++ {
		switch op := rng.Intn(6); {
		case op == 0 || len(bufs) == 0: // allocate
			n := int64(rng.Intn(200) + 1)
			b, err := offload.Allocate[float64](rt, 1, n)
			if err != nil {
				return nil, fmt.Errorf("step %d alloc: %w", step, err)
			}
			bufs = append(bufs, b)
		case op == 1: // put (drain first: a put racing an in-flight kernel
			// would be ordered differently by different backends)
			if err := drain(); err != nil {
				return nil, fmt.Errorf("step %d drain: %w", step, err)
			}
			b := bufs[rng.Intn(len(bufs))]
			vals := make([]float64, b.Count)
			for i := range vals {
				vals[i] = rng.Float64()
			}
			if err := offload.Put(rt, vals, b); err != nil {
				return nil, fmt.Errorf("step %d put: %w", step, err)
			}
		case op == 2: // get (drain for the same ordering reason)
			if err := drain(); err != nil {
				return nil, fmt.Errorf("step %d drain: %w", step, err)
			}
			b := bufs[rng.Intn(len(bufs))]
			out := make([]float64, b.Count)
			if err := offload.Get(rt, b, out); err != nil {
				return nil, fmt.Errorf("step %d get: %w", step, err)
			}
			s := 0.0
			for _, v := range out {
				s += v
			}
			obs = append(obs, s)
		case op == 3: // sync offload (in-order with pending asyncs to the
			// same node on every backend only if drained first)
			if err := drain(); err != nil {
				return nil, fmt.Errorf("step %d drain: %w", step, err)
			}
			b := bufs[rng.Intn(len(bufs))]
			v, err := offload.Sync(rt, 1, eqFMA.Bind(b, rng.Float64(), rng.Float64()))
			if err != nil {
				return nil, fmt.Errorf("step %d sync: %w", step, err)
			}
			obs = append(obs, v)
		case op == 4: // async offload (drained later, in order)
			b := bufs[rng.Intn(len(bufs))]
			futs = append(futs, offload.Async(rt, 1, eqFMA.Bind(b, rng.Float64(), 1.0)))
			if len(futs) >= 4 {
				if err := drain(); err != nil {
					return nil, fmt.Errorf("step %d drain: %w", step, err)
				}
			}
		case op == 5 && len(bufs) > 1: // free
			i := rng.Intn(len(bufs))
			// Outstanding asyncs may reference any buffer; drain first.
			if err := drain(); err != nil {
				return nil, fmt.Errorf("step %d drain: %w", step, err)
			}
			if err := offload.Free(rt, bufs[i]); err != nil {
				return nil, fmt.Errorf("step %d free: %w", step, err)
			}
			bufs = append(bufs[:i], bufs[i+1:]...)
		}
	}
	if err := drain(); err != nil {
		return nil, err
	}
	return obs, nil
}

// oracle runs the script on the loopback backend.
func oracle(t *testing.T, seed int64) []float64 {
	t.Helper()
	hb, tb, err := locb.NewPair(1 << 24)
	if err != nil {
		t.Fatal(err)
	}
	target := offload.NewTarget(tb, "equiv-oracle-target")
	host := offload.NewRuntime(hb, "equiv-oracle-host")
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := target.Serve(); err != nil {
			t.Errorf("oracle Serve: %v", err)
		}
	}()
	obs, err := opScript(seed, host)
	if err != nil {
		t.Fatalf("oracle script: %v", err)
	}
	if err := host.Finalize(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	return obs
}

func TestBackendEquivalence(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		want := oracle(t, seed)
		if len(want) == 0 {
			t.Fatalf("seed %d produced no observations", seed)
		}
		for name, connect := range connectors {
			t.Run(fmt.Sprintf("%s/seed%d", name, seed), func(t *testing.T) {
				m, err := machine.New(machine.Config{VEs: 1})
				if err != nil {
					t.Fatal(err)
				}
				err = m.RunMain(func(p *machine.Proc) error {
					rt, err := connect(p, m)
					if err != nil {
						return err
					}
					defer func() { _ = rt.Finalize() }()
					got, err := opScript(seed, rt)
					if err != nil {
						return err
					}
					if len(got) != len(want) {
						t.Fatalf("observation count %d != oracle %d", len(got), len(want))
					}
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("observation %d: %v != oracle %v", i, got[i], want[i])
						}
					}
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}
