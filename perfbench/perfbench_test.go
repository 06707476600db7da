package main

import (
	"encoding/json"
	"maps"
	"math"
	"os"
	"testing"
	"time"

	"hamoffload/bench"
)

// testN is each workload's request count in the self-tests.
var testN = map[string]int{"pingpong": 2000, "veo_bulk": 6, "serving": 6000, "gray": 1500}

// small returns the named workload with its timed phase cut to its testN
// requests, so the self-tests run in seconds.
func small(t *testing.T, name string) workload {
	t.Helper()
	w, ok := findWorkload(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	w.n = testN[name]
	return w
}

// newTestRunner prepares an in-process runner of a cut-down workload.
func newTestRunner(t *testing.T, name string, seed uint64) *runner {
	t.Helper()
	s, err := newRunner(small(t, name), seed, true)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// runKind runs one rep of s; the runner fails it unless it reproduces
// the runner's first rep exactly.
func runKind(t *testing.T, s *runner, kind string) summary {
	t.Helper()
	sum, err := s.rep(kind)
	if err != nil {
		t.Fatal(err)
	}
	return sum
}

// TestDeterminism runs every workload in two fresh runners of one seed:
// the simulated results, the layer counters and the per-phase simulated
// self times must be identical, and within a runner the traced (armed)
// rep must reproduce the untraced one.
func TestDeterminism(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			var runs []summary
			for range 2 {
				s := newTestRunner(t, w.name, 7)
				runKind(t, s, kindPlain)
				armed := runKind(t, s, kindArmed)
				if len(armed.Phases) == 0 {
					t.Fatal("no simulated phase time attributed")
				}
				runs = append(runs, armed)
			}
			a, b := runs[0], runs[1]
			if a.Digest != b.Digest || a.Sim != b.Sim {
				t.Fatalf("two runners of seed 7 differ: %+v vs %+v", a.Sim, b.Sim)
			}
			if !maps.Equal(a.Phases, b.Phases) {
				t.Fatalf("per-phase simulated self time differs:\n%v\n%v", a.Phases, b.Phases)
			}
			if !maps.Equal(a.Registry, b.Registry) {
				t.Fatalf("registry counters differ:\n%v\n%v", a.Registry, b.Registry)
			}
		})
	}
}

// TestSeedReachesInputs shows that the seed reaches serving's arrival
// generator and gray's fault plan: a second seed moves their tails.
func TestSeedReachesInputs(t *testing.T) {
	for _, name := range []string{"serving", "gray"} {
		t.Run(name, func(t *testing.T) {
			var p99 []float64
			for _, seed := range []uint64{1, 2} {
				p99 = append(p99, runKind(t, newTestRunner(t, name, seed), kindPlain).Sim.P99US)
			}
			if p99[0] == p99[1] {
				t.Fatalf("seeds 1 and 2 give the same p99 %g", p99[0])
			}
		})
	}
}

// TestPingpongMatchesFig9 pins pingpong to the committed Fig. 9 baseline:
// its simulated mean is the DMA protocol's empty-offload cost.
func TestPingpongMatchesFig9(t *testing.T) {
	raw, err := os.ReadFile("../BENCH_fig9.json")
	if err != nil {
		t.Fatal(err)
	}
	var baseline bench.Report
	if err := json.Unmarshal(raw, &baseline); err != nil {
		t.Fatal(err)
	}
	var want float64
	for _, e := range baseline.Entries {
		if e.Name == "ham-dma-empty" {
			want = e.MeanUS
		}
	}
	got := runKind(t, newTestRunner(t, "pingpong", 1), kindPlain).Sim.MeanUS
	if want == 0 || math.Abs(got-want) > 0.01 {
		t.Fatalf("pingpong mean %.4f us, Fig. 9 baseline %.4f us", got, want)
	}
}

// TestLayerSeparation runs a short traced run of every workload at full
// size, so the profile holds enough samples: each workload must exercise
// exactly the layers it was chosen for (checked inside the traced run), and
// veo_bulk must spend the largest share of host time in memory.
func TestLayerSeparation(t *testing.T) {
	memFrac := map[string]float64{}
	for _, w := range workloads {
		res, err := tracedRun(w, 3, time.Second, true, "")
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		memFrac[w.name] = res.Metrics["mem.host_frac"].Value
	}
	for name, f := range memFrac {
		if name != "veo_bulk" && f >= memFrac["veo_bulk"] {
			t.Errorf("mem.host_frac on %s is %.4f, not below veo_bulk's %.4f", name, f, memFrac["veo_bulk"])
		}
	}
}

// TestLayerOf checks the package-to-layer map on real symbol shapes,
// including generic instantiations whose type arguments hold import paths.
func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"hamoffload/internal/simtime.(*Engine).Run":                "simtime",
		"hamoffload/internal/core.Async[go.shape.struct {}]":       "core",
		"hamoffload/internal/core.Sync[go.shape.[]hamoffload/x.T]": "core",
		"hamoffload/gateway.(*Gateway[go.shape.struct {}]).Submit": "gateway",
		"hamoffload/sched/health.(*Tracker).Observe":               "sched",
		"hamoffload/internal/backend/dmab.Connect":                 "dmab",
		"hamoffload/internal/backend/slots.Encode":                 "slots",
		"hamoffload/internal/hostmem.(*Host).Alloc":                "mem",
		"hamoffload/internal/vecore.Model.VectorTime":              "veos",
		"hamoffload/machine.ConnectDMA":                            "machine",
		"hamoffload/internal/backend/conformance.Run":              "other",
		"main.runPingpong": "bench",
		"runtime.chansend": "",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}
