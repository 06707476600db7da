package sched_test

import (
	"sync"
	"testing"

	"hamoffload/internal/backend/locb"
	"hamoffload/internal/core"
	"hamoffload/sched"
)

// Unit tests of the placement policies (pure functions, no backend) and the
// scheduler's validation. The end-to-end behaviour — Map over a cluster,
// batching composition, determinism — lives in machine/sched_test.go.

func TestRoundRobinCycles(t *testing.T) {
	pol := sched.RoundRobin()
	nodes := []core.NodeID{1, 2, 3}
	idle := []int{0, 0, 0}
	for task := 0; task < 9; task++ {
		if got, want := pol.Pick(task, nodes, idle), task%3; got != want {
			t.Fatalf("task %d -> %d, want %d", task, got, want)
		}
	}
}

func TestLeastInFlightPicksMinAndBreaksTiesLow(t *testing.T) {
	pol := sched.LeastInFlight()
	nodes := []core.NodeID{1, 2, 3, 4}
	for _, tc := range []struct {
		inflight []int
		want     int
	}{
		{[]int{0, 0, 0, 0}, 0}, // all idle: lowest index
		{[]int{2, 1, 3, 1}, 1}, // tie between 1 and 3: lowest index
		{[]int{5, 4, 3, 9}, 2},
		{[]int{1, 0, 0, 0}, 1},
	} {
		if got := pol.Pick(0, nodes, tc.inflight); got != tc.want {
			t.Errorf("inflight %v -> %d, want %d", tc.inflight, got, tc.want)
		}
	}
}

func TestAffinityMapsAndFallsBack(t *testing.T) {
	nodes := []core.NodeID{3, 5, 7}
	pol := sched.Affinity(func(task int) core.NodeID {
		if task < 3 {
			return nodes[task]
		}
		return 42 // not a scheduler node: falls back to round-robin by index
	})
	for task := 0; task < 3; task++ {
		if got := pol.Pick(task, nodes, []int{0, 0, 0}); got != task {
			t.Errorf("task %d -> %d, want %d", task, got, task)
		}
	}
	for task := 3; task < 9; task++ {
		if got, want := pol.Pick(task, nodes, []int{0, 0, 0}), task%3; got != want {
			t.Errorf("fallback task %d -> %d, want %d", task, got, want)
		}
	}
}

func TestNewValidation(t *testing.T) {
	hb, tb, err := locb.NewPair(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	target := core.NewTarget(tb, "sched-target")
	host := core.NewRuntime(hb, "sched-host")
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := target.Serve(); err != nil {
			t.Errorf("Serve: %v", err)
		}
	}()
	defer func() {
		if err := host.Finalize(); err != nil {
			t.Errorf("Finalize: %v", err)
		}
		wg.Wait()
	}()

	if _, err := sched.New(host, nil, sched.RoundRobin()); err == nil {
		t.Error("empty node set accepted")
	}
	if _, err := sched.New(host, []core.NodeID{1}, nil); err == nil {
		t.Error("nil policy accepted")
	}
	if _, err := sched.New(host, []core.NodeID{0}, sched.RoundRobin()); err == nil {
		t.Error("self node accepted")
	}
	if _, err := sched.New(host, []core.NodeID{99}, sched.RoundRobin()); err == nil {
		t.Error("out-of-range node accepted")
	}
	s, err := sched.New(host, sched.Targets(host), sched.RoundRobin())
	if err != nil {
		t.Fatalf("valid scheduler rejected: %v", err)
	}
	if n := s.Nodes(); len(n) != 1 || n[0] != 1 {
		t.Errorf("Targets = %v, want [1]", n)
	}
}
