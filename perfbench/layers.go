package main

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"hamoffload/internal/trace"
)

// maxWindows caps how many request windows the phase attribution analyses.
const maxWindows = 2000

// lifecycle are the offload lifecycle phases whose simulated self time the
// per-layer metrics report for the dmab and veob protocols.
var lifecycle = []trace.Phase{
	trace.PhaseCall, trace.PhaseFlagWrite, trace.PhasePoll, trace.PhaseFetch,
	trace.PhaseExecute, trace.PhaseResult, trace.PhaseWait,
}

// spanCats are the infrastructure span categories reported as simulated
// self time of the dma, pcie and veos layers.
var spanCats = map[string]string{"dma": "dma.sim_us", "pcie": "pcie.sim_us", "veo": "veos.sim_veo_us"}

// breakdown attributes every instant of up to maxWindows evenly spaced
// request windows to the innermost recorded span (trace.BreakdownWindow)
// and returns the mean simulated µs per request of each phase and span
// category, keyed "phase:<phase>" and "cat:<category>".
func breakdown(spans []trace.Span, windows []window) map[string]float64 {
	out := map[string]float64{}
	if len(windows) == 0 {
		return out
	}
	step := max(1, len(windows)/maxWindows)
	var sample []window
	for i := 0; i < len(windows); i += step {
		sample = append(sample, windows[i])
	}
	sort.SliceStable(sample, func(i, j int) bool { return sample[i].start < sample[j].start })
	order := make([]int, 0, len(spans))
	for i, s := range spans {
		if !s.Instant && s.End > s.Start {
			order = append(order, i)
		}
	}
	sort.SliceStable(order, func(i, j int) bool { return spans[order[i]].Start < spans[order[j]].Start })

	// Sweep: windows in start order; active holds every span that started
	// before the current window ends and had not ended when it began.
	var active, in []trace.Span
	next := 0
	for _, w := range sample {
		for next < len(order) && spans[order[next]].Start < w.end {
			active = append(active, spans[order[next]])
			next++
		}
		keep := active[:0]
		for _, s := range active {
			if s.End > w.start {
				keep = append(keep, s)
			}
		}
		active = keep
		in = in[:0]
		for _, s := range active {
			if s.Start < w.end {
				in = append(in, s)
			}
		}
		for _, row := range trace.BreakdownWindow(in, w.start, w.end) {
			us := row.Total.Microseconds()
			if row.Phase != "" {
				out["phase:"+string(row.Phase)] += us
			}
			if row.Cat != "" {
				out["cat:"+row.Cat] += us
			}
		}
	}
	for k := range out {
		out[k] /= float64(len(sample))
	}
	return out
}

// perLayer computes the per-layer metrics of a traced run from its plain,
// profiled and armed reps.
func (s *runner) perLayer(plain, profiled, armed []summary) (result, error) {
	w, n := s.w, float64(s.w.n)
	f := s.first
	d := f.Delta
	m := metrics{}
	kreq := func(v float64) float64 { return 1000 * v / n }
	perReq := func(v float64) float64 { return v / n }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}

	layers := map[string]int64{}
	calls := map[string]callStat{}
	for _, r := range profiled {
		for l, c := range r.Layers {
			layers[l] += c
		}
		for name, st := range r.Calls {
			c := calls[name]
			c.N += st.N
			c.Own += st.Own
			calls[name] = c
		}
	}
	var samples int64
	for _, c := range layers {
		samples += c
	}
	frac := func(layer string) float64 { return ratio(float64(layers[layer]), float64(samples)) }
	meanNS := func(name string) float64 { return ratio(float64(calls[name].Own), float64(calls[name].N)) }
	const bulkMiB = float64(bulkElems*8) / (1 << 20)
	perMiB := func(name string) float64 { return meanNS(name) / bulkMiB }
	hostS := medianOf(plain, func(r summary) float64 { return r.HostS })

	m.set("simtime.events_per_req", "count", perReq(float64(d.Events)))
	m.set("simtime.host_ns_per_event", "ns", 1e9*hostS/float64(d.Events))
	m.set("simtime.max_queue", "count", float64(d.MaxQueue))

	m.set("machine.new_ms", "ms", meanNS("machine.New")/1e6)
	m.set("machine.connect_ms", "ms", meanNS("machine.Connect")/1e6)

	m.set("core.bind_ns", "ns", meanNS("core.Bind"))
	m.set("core.issue_ns", "ns", meanNS("core.Async"))
	m.set("core.wait_ns", "ns", meanNS("core.Future.Get"))
	m.set("core.put_ns_per_mib", "ns/MiB", perMiB("core.Put"))
	m.set("core.get_ns_per_mib", "ns/MiB", perMiB("core.Get"))
	var coreCalls int
	for _, name := range []string{"core.Async", "core.Put", "core.Get", "gateway.Submit"} {
		coreCalls += calls[name].N
	}
	mallocs := medianOf(plain, func(r summary) float64 { return float64(r.Delta.Mallocs) })
	m.set("core.allocs_per_call", "count", ratio(mallocs*float64(len(profiled)), float64(coreCalls)))
	m.set("core.retries_per_kreq", "count", kreq(float64(d.Retries)))
	m.set("core.hedges_per_kreq", "count", kreq(float64(d.Hedges)))
	m.set("core.hedge_win_frac", "ratio", ratio(float64(d.HedgeWins), float64(d.Hedges)))
	m.set("core.budget_denied_per_kreq", "count", kreq(float64(d.Denied)))
	reg := armed[0].Registry
	m.set("core.dedup_per_kreq", "count", kreq(float64(reg["dispatch.dedup"])))
	m.set("core.msgs_per_frame", "count", ratio(float64(reg["batch.messages"]), float64(reg["batch.flushes"])))

	phases := armed[0].Phases
	proto := "dmab"
	if w.name == "veo_bulk" {
		proto = "veob"
	}
	for _, b := range []string{"dmab", "veob"} {
		for _, ph := range lifecycle {
			v := 0.0
			if b == proto {
				v = phases["phase:"+string(ph)]
			}
			m.set(b+".sim_"+strings.ReplaceAll(string(ph), "-", "_")+"_us", "sim_us", v)
		}
	}
	for cat, name := range spanCats {
		m.set(name, "sim_us", phases["cat:"+cat])
	}
	m.set("pcie.bytes_per_req", "B", perReq(float64(d.Moved)))
	m.set("pcie.busy_frac", "ratio", d.Busy.Seconds()/(float64(2*f.Links)*f.SimS))
	m.set("veos.syscalls_per_req", "count", perReq(float64(d.Syscalls)))
	copied := 0.0
	if w.name == "veo_bulk" {
		copied = 2 * float64(bulkElems*8)
	}
	m.set("mem.copied_bytes_per_req", "B", copied)
	m.set("faults.injected_per_kreq", "count", kreq(float64(d.Injected)))

	g := f.Gateway
	m.set("gateway.submit_ns", "ns", meanNS("gateway.Submit"))
	m.set("gateway.poll_ns", "ns", meanNS("gateway.Poll"))
	m.set("gateway.drain_ms", "ms", meanNS("gateway.Drain")/1e6)
	m.set("gateway.reject_quota_frac", "ratio", ratio(float64(g.RejQuota), float64(g.Submitted)))
	m.set("gateway.reject_share_frac", "ratio", ratio(float64(g.RejShare), float64(g.Submitted)))
	m.set("gateway.steals_per_kreq", "count", kreq(float64(g.Steals)))
	m.set("gateway.max_queue", "count", float64(g.MaxQueue))

	m.set("sched.transitions", "count", float64(d.Transitions))
	armedS := medianOf(armed, func(r summary) float64 { return r.HostS })
	m.set("trace.overhead_pct", "%", 100*(armedS/hostS-1))

	for _, l := range profiledLayers {
		m.set(l+".host_frac", "ratio", frac(l))
	}
	m.set("runtime.bg_frac", "ratio", frac("runtime"))
	m.set("runtime.profile_samples", "count", float64(samples))
	m.set("runtime.gc_per_kreq", "count", kreq(medianOf(plain, func(r summary) float64 { return float64(r.Delta.GCs) })))

	benchS := medianOf(plain, func(r summary) float64 { return r.GenS + r.BenchS })
	m.set("bench.gen_ns_per_req", "ns", 1e9*perReq(benchS))
	m.set("bench.host_frac", "ratio", frac("bench"))
	m.set("bench.samples", "count", float64(f.Served))
	m.set("bench.gen_late_frac", "ratio", perReq(float64(f.Late)))
	m.set("bench.gen_late_max_us", "sim_us", f.LateMaxUS)

	res := total(result{Correct: true, Metrics: m}, plain, profiled, armed)
	return res, separated(w, m)
}

// profiledLayers are the layers whose share of host CPU samples the traced
// run reports as <layer>.host_frac.
var profiledLayers = []string{
	"simtime", "machine", "core", "ham", "slots", "dmab", "veob", "dma", "pcie", "veos",
	"mem", "faults", "gateway", "sched", "telemetry", "trace",
}

// separatedLayers are the layers each workload either exercises or
// bypasses, and the per-layer metric that shows which.
var separatedLayers = map[string]string{
	"faults":    "faults.injected_per_kreq",
	"veob":      "veob.host_frac",
	"gateway":   "gateway.host_frac",
	"telemetry": "telemetry.host_frac",
}

// separated checks that w exercises exactly the separated layers it was
// chosen for, so every later optimisation of one of them has a workload
// that runs it and one that bypasses it.
func separated(w workload, m metrics) error {
	for layer, name := range separatedLayers {
		if slices.Contains(w.touches, layer) {
			continue
		}
		want := slices.Contains(w.stresses, layer)
		if got := m[name].Value > 0; got != want {
			return fmt.Errorf("%w: %s on %s is %g; the workload should %s the %s layer",
				errCheck, name, w.name, m[name].Value, map[bool]string{true: "exercise", false: "bypass"}[want], layer)
		}
	}
	return nil
}
