package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"os/exec"
	"runtime"
	"runtime/pprof"
	"slices"
	"sort"
	"strconv"
	"syscall"
	"time"

	"hamoffload/bench"
	"hamoffload/internal/simtime"
	"hamoffload/internal/trace"
)

// minReps is the fewest reps a timed run makes, however short its budget.
const minReps = 3

// profileHz is the CPU profile's sampling rate in the traced run.
const profileHz = 1000

// paperDMAUS and paperVEOUS are the paper's measured empty-offload costs
// on SX-Aurora hardware: HAM-Offload over the DMA protocol, and over VEO
// (70.8x slower).
const (
	paperDMAUS = 6.1
	paperVEOUS = paperDMAUS * 70.8
)

// Kinds of rep. A plain rep is measured exactly as the timed run measures
// it; a profiled rep adds a CPU profile and host-time spans around the
// benchmark's calls; an armed rep turns the program's trace.Tracer on.
// calibrate runs set-up only, for workloads that place inputs relative to
// when the timed phase opens.
const (
	kindPlain     = "plain"
	kindProfiled  = "profiled"
	kindArmed     = "armed"
	kindCalibrate = "calibrate"
)

// exitCheck is a rep process's exit code for a failed output check.
const exitCheck = 3

// summary is what one rep reports to its run: host figures, the simulated
// results, and a digest of everything it simulated, which every other rep
// of the seed must reproduce.
type summary struct {
	Digest uint64  `json:"digest"`
	HostS  float64 `json:"host_s"`  // program host time of the timed phase
	SetupS float64 `json:"setup_s"` // host time of set-up
	BenchS float64 `json:"bench_s"` // benchmark's own checks in the timed phase
	GenS   float64 `json:"gen_s"`   // input generation, before set-up
	RSSMiB float64 `json:"rss_mib"` // peak resident set of the rep's process

	Attempted int          `json:"attempted"`
	Failed    int          `json:"failed"`
	Served    int          `json:"served"`
	Sim       bench.Stats  `json:"sim"`
	SimLC     bench.Stats  `json:"sim_lc"`
	SimS      float64      `json:"sim_s"` // simulated span of the timed phase
	Late      int          `json:"late"`
	LateMaxUS float64      `json:"late_max_us"`
	Start     simtime.Time `json:"start,omitempty"` // calibrate only
	Links     int          `json:"links"`
	Delta     counters     `json:"delta"`
	Gateway   gatewayStats `json:"gateway"`

	Layers   map[string]int64    `json:"layers,omitempty"`   // profiled: samples per layer
	Calls    map[string]callStat `json:"calls,omitempty"`    // profiled: spans per call name
	Phases   map[string]float64  `json:"phases,omitempty"`   // armed: simulated µs per request
	Registry map[string]int64    `json:"registry,omitempty"` // armed: counter deltas
}

// summarize reduces a finished rep to its summary.
func (r *rep) summarize() summary {
	s := summary{
		HostS: r.hostSeconds(), SetupS: r.setupSeconds(), BenchS: r.benchCPU,
		Attempted: r.attempted, Failed: r.failed, Served: len(r.lat),
		Sim: bench.NewStats(r.lat), SimS: r.simEnd.Sub(r.simStart).Seconds(),
		Late: r.genLate, LateMaxUS: r.genLateMax.Microseconds(),
		Links: r.links, Delta: r.delta(), Gateway: r.gw,
	}
	s.SimLC = s.Sim
	if r.latLC != nil {
		s.SimLC = bench.NewStats(r.latLC)
	}
	sim := s.Delta
	sim.Mallocs, sim.Bytes, sim.GCs = 0, 0, 0
	h := fnv.New64a()
	for _, v := range []any{r.lat, r.latLC, int64(r.attempted), int64(r.failed), int64(r.refused),
		r.simEnd.Sub(r.simStart), int64(r.genLate), r.genLateMax, sim, r.gw} {
		_ = binary.Write(h, binary.LittleEndian, v) // writes to a hash cannot fail
	}
	s.Digest = h.Sum64()
	return s
}

// runRep runs one rep of the given kind in this process. A profiled rep
// writes its host-time spans to spans, unless it is empty.
func runRep(w workload, seed uint64, in any, kind, spans string) (summary, error) {
	r := &rep{seed: seed}
	var prof bytes.Buffer
	var perr error
	switch kind {
	case kindProfiled:
		r.calls = newCallLog()
		r.profile = func(start bool) {
			if !start {
				pprof.StopCPUProfile()
				return
			}
			// A finer rate than pprof's default 100 Hz; pprof warns on
			// standard error that it cannot reset the rate.
			runtime.SetCPUProfileRate(profileHz)
			perr = pprof.StartCPUProfile(&prof)
		}
	case kindArmed:
		r.tracer = trace.NewTracer()
	}
	r.begin = cpuNow()
	if err := w.run(r, in, w.n, w.warm); err != nil {
		return summary{}, err
	}
	s := r.summarize()
	switch kind {
	case kindProfiled:
		if perr != nil {
			return s, perr
		}
		p, err := parseProfile(prof.Bytes())
		if err != nil {
			return s, err
		}
		s.Layers = map[string]int64{}
		p.layerSamples(s.Layers)
		s.Calls = r.calls.stats()
		if spans != "" {
			if err := r.calls.write(spans); err != nil {
				return s, err
			}
		}
	case kindArmed:
		s.Phases = breakdown(r.tracer.Spans(), r.windows)
		s.Registry = map[string]int64{}
		for k, v := range r.regAfter {
			s.Registry[k] = v - r.regBefore[k]
		}
	}
	s.RSSMiB = peakRSSMiB()
	return s, nil
}

// calibrate runs set-up once to learn when the timed phase opens.
func calibrate(w workload, seed uint64, in any) (simtime.Time, error) {
	if err := w.run(&rep{seed: seed}, in, w.n, w.warm); err != nil {
		return 0, err
	}
	return in.(*servingInput).start, nil
}

// repMain is the body of a rep process: it generates the inputs from the
// seed, runs one rep of the given kind, and prints its summary as JSON.
func repMain(w workload, seed uint64, kind string, start simtime.Time, spans string) error {
	t := cpuNow()
	in := w.gen(seed, w.n)
	gen := cpuNow() - t
	var s summary
	var err error
	if kind == kindCalibrate {
		s.Start, err = calibrate(w, seed, in)
	} else {
		if start != 0 {
			in.(*servingInput).start = start
		}
		s, err = runRep(w, seed, in, kind, spans)
		s.GenS = gen
	}
	if err != nil {
		return err
	}
	out, err := json.Marshal(s)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// runner is one benchmark run. Every rep runs in a fresh process of its
// own, so no rep inherits another's heap or anything a machine leaves
// behind; the self-tests run reps in process.
type runner struct {
	w       workload
	seed    uint64
	exe     string       // this binary; empty runs reps in process
	in      any          // in-process inputs
	start   simtime.Time // calibrated timed-phase start, zero if none
	probeUS float64      // the Fig. 9 probe's mean, simulated µs
	first   *summary     // the rep every other rep must reproduce
	// spans, if set, names the file the next profiled rep writes its
	// host-time spans to; it is cleared once they are written.
	spans string
}

// newRunner prepares a run: the calibration pass, if the workload has
// one, and the Fig. 9 probe over the workload's protocol (back-to-back
// empty offloads on a default one-VE machine).
func newRunner(w workload, seed uint64, inProcess bool) (*runner, error) {
	s := &runner{w: w, seed: seed}
	if inProcess {
		s.in = w.gen(seed, w.n)
	} else {
		exe, err := os.Executable()
		if err != nil {
			return nil, err
		}
		s.exe = exe
	}
	if w.calibrate {
		c, err := s.rep(kindCalibrate)
		if err != nil {
			return nil, err
		}
		s.start = c.Start
	}
	var err error
	s.probeUS, err = bench.MeasureHAMEmpty(bench.Fig9Config{}, w.name != "veo_bulk")
	return s, err
}

// rep runs one rep of the given kind and checks that it reproduces the
// runner's first rep exactly.
func (s *runner) rep(kind string) (summary, error) {
	var sum summary
	var err error
	switch {
	case s.exe == "" && kind == kindCalibrate:
		sum.Start, err = calibrate(s.w, s.seed, s.in)
	case s.exe == "":
		sum, err = runRep(s.w, s.seed, s.in, kind, s.spansFor(kind))
	default:
		sum, err = s.spawn(kind)
	}
	if err != nil || kind == kindCalibrate {
		return sum, err
	}
	if s.first == nil {
		s.first = &sum
	} else if sum.Digest != s.first.Digest {
		return sum, fmt.Errorf("%w: a %s rep of seed %d simulated different results from the first rep",
			errCheck, kind, s.seed)
	}
	return sum, nil
}

// spansFor returns the span file a rep of the given kind writes, if any.
func (s *runner) spansFor(kind string) string {
	if kind != kindProfiled {
		return ""
	}
	path := s.spans
	s.spans = ""
	return path
}

// spawn runs one rep in a child process and waits for it to exit.
func (s *runner) spawn(kind string) (summary, error) {
	cmd := exec.Command(s.exe, "--workload", s.w.name, "--seed", strconv.FormatUint(s.seed, 10),
		"--rep", kind, "--start", strconv.FormatInt(int64(s.start), 10), "--spans", s.spansFor(kind))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	var exit *exec.ExitError
	if errors.As(err, &exit) && exit.ExitCode() == exitCheck {
		return summary{}, fmt.Errorf("%w: %s rep", errCheck, kind)
	}
	if err != nil {
		return summary{}, fmt.Errorf("perfbench: %s rep: %w", kind, err)
	}
	var sum summary
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	if err := json.Unmarshal(lines[len(lines)-1], &sum); err != nil {
		return summary{}, fmt.Errorf("perfbench: %s rep output: %w", kind, err)
	}
	return sum, nil
}

// timedRun makes plain reps until the budget is spent and reports the
// end-to-end metrics.
func timedRun(w workload, seed uint64, budget time.Duration, inProcess bool) (result, error) {
	s, err := newRunner(w, seed, inProcess)
	if err != nil {
		return result{}, err
	}
	var reps []summary
	deadline := time.Now().Add(budget)
	for len(reps) < minReps || time.Now().Before(deadline) {
		sum, err := s.rep(kindPlain)
		if err != nil {
			return result{}, err
		}
		reps = append(reps, sum)
	}
	return s.endToEnd(reps), nil
}

// endToEnd computes the end-to-end metrics: host figures as medians over
// the reps, simulated figures from the first rep, which all reps match.
func (s *runner) endToEnd(reps []summary) result {
	n := float64(s.w.n)
	m := metrics{}
	m.set("host_req_per_s", "1/s", medianOf(reps, func(r summary) float64 { return n / r.HostS }))
	m.set("host_allocs_per_req", "count", medianOf(reps, func(r summary) float64 { return float64(r.Delta.Mallocs) / n }))
	m.set("host_bytes_per_req", "B", medianOf(reps, func(r summary) float64 { return float64(r.Delta.Bytes) / n }))
	m.set("setup_s", "s", medianOf(reps, func(r summary) float64 { return r.SetupS }))
	m.set("peak_rss_mib", "MiB", medianOf(reps, func(r summary) float64 { return r.RSSMiB }))

	f := s.first
	m.set("sim_p50_us", "sim_us", f.Sim.P50US)
	m.set("sim_p99_us", "sim_us", f.Sim.P99US)
	m.set("sim_p999_us", "sim_us", f.Sim.P999US)
	m.set("sim_samples", "count", float64(f.Sim.N))
	m.set("sim_req_per_s", "sim_1/s", float64(f.Served)/f.SimS)
	m.set("sim_lc_p99_us", "sim_us", f.SimLC.P99US)
	m.set("served_frac", "ratio", float64(f.Served)/float64(f.Attempted))
	m.set("paper_err_pct", "%", s.paperErrPct())
	return total(result{Correct: true, Metrics: m}, reps)
}

// total adds the reps' request outcomes to res.
func total(res result, reps ...[]summary) result {
	for _, rs := range reps {
		for _, r := range rs {
			res.Attempted += r.Attempted
			res.Failed += r.Failed
		}
	}
	return res
}

// paperErrPct compares the simulated empty-offload cost with the paper's
// hardware figure for the workload's protocol. Pingpong's timed requests
// are that offload, and their mean is Fig. 9's figure. The other workloads
// have no hardware reference of their own; they report the error of the
// Fig. 9 probe over their protocol.
func (s *runner) paperErrPct() float64 {
	us, ref := s.probeUS, paperDMAUS
	switch s.w.name {
	case "pingpong":
		us = s.first.Sim.MeanUS
	case "veo_bulk":
		ref = paperVEOUS
	}
	return 100 * math.Abs(us-ref) / ref
}

// tracedRun cycles through a plain, a profiled and an armed rep until the
// budget is spent, and reports the per-layer metrics. The first profiled
// rep writes its host-time spans to spans, unless it is empty.
func tracedRun(w workload, seed uint64, budget time.Duration, inProcess bool, spans string) (result, error) {
	s, err := newRunner(w, seed, inProcess)
	if err != nil {
		return result{}, err
	}
	s.spans = spans
	var plain, profiled, armed []summary
	deadline := time.Now().Add(budget)
	for len(plain) == 0 || time.Now().Before(deadline) {
		for _, k := range []struct {
			kind string
			into *[]summary
		}{{kindPlain, &plain}, {kindProfiled, &profiled}, {kindArmed, &armed}} {
			sum, err := s.rep(k.kind)
			if err != nil {
				return result{}, err
			}
			*k.into = append(*k.into, sum)
		}
	}
	return s.perLayer(plain, profiled, armed)
}

// medianOf is the median of f over reps.
func medianOf(reps []summary, f func(summary) float64) float64 {
	v := make([]float64, len(reps))
	for i, r := range reps {
		v[i] = f(r)
	}
	return median(v)
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	v = slices.Clone(v)
	sort.Float64s(v)
	if len(v)%2 == 1 {
		return v[len(v)/2]
	}
	return (v[len(v)/2-1] + v[len(v)/2]) / 2
}

// peakRSSMiB is the process's peak resident set size.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
