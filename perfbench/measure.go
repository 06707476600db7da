package main

import (
	"encoding/json"
	"os"
	"runtime"
	"syscall"
	"time"

	"hamoffload/internal/pcie"
	"hamoffload/internal/simtime"
	"hamoffload/internal/topology"
	"hamoffload/internal/trace"
	"hamoffload/machine"
	"hamoffload/offload"
	"hamoffload/sched/health"
)

// rep is one set-up plus one timed phase of a workload on a fresh machine.
// The timed phase runs a fixed, seed-determined request set, so every rep of
// one seed produces the same simulated results; host figures vary from rep
// to rep and are reported as medians.
type rep struct {
	seed uint64
	// tracer arms the program's span tracer (trace.Tracer) on the machine;
	// nil keeps it off, as in the timed runs.
	tracer *trace.Tracer
	// calls records host-time spans around the benchmark's public calls;
	// nil records nothing.
	calls *callLog
	// profile, when set, runs over the timed phase only.
	profile func(start bool)

	// Host time is the process's CPU time (user and system, every thread),
	// in seconds: on a shared host it is disturbed less than wall time by
	// neighbours that take the CPU away. begin is taken before machine.New,
	// first at the first timed request, end after the last.
	begin, first, end float64
	// benchCPU is host time spent in the benchmark's own checking inside
	// the timed phase; it is excluded from the program's host time.
	benchCPU float64
	before   counters
	after    counters

	attempted, failed, refused int
	lat                        []float64 // simulated µs, due to settle, per served request
	latLC                      []float64 // latency-critical class; nil means every request is
	simStart, simEnd           simtime.Time
	genLate                    int              // open-loop arrivals submitted after they were due
	genLateMax                 simtime.Duration // the latest of them
	windows                    []window         // per-request simulated windows (traced reps only)

	m   *machine.Machine
	rt  *offload.Runtime
	trk *health.Tracker
	gw  gatewayStats
	// links is how many VE PCIe links the machine has.
	links int
	// Traced reps only: the program's registry counters around the timed
	// phase.
	regBefore, regAfter map[string]int64
}

// window is one request's span on the simulated clock.
type window struct{ start, end simtime.Time }

// counters are the figures the layers expose, read before and after the
// timed phase. Every field is simulated except Mallocs, Bytes and GCs.
type counters struct {
	Events      uint64
	Injected    uint64
	Moved       int64            // bytes over every PCIe link, both directions
	Busy        simtime.Duration // link busy time, summed over links and directions
	Syscalls    int64
	Retries     int64
	Hedges      int64
	HedgeWins   int64
	Denied      int64
	Offloads    int64
	MaxQueue    int64 // engine event-queue high-water mark
	Transitions int64
	Mallocs     uint64
	Bytes       uint64
	GCs         uint32
}

// newMachine builds the rep's machine, arming the tracer on traced reps.
func (r *rep) newMachine(cfg machine.Config) (*machine.Machine, error) {
	if r.tracer != nil {
		t := topology.DefaultTiming()
		if cfg.Timing != nil {
			t = *cfg.Timing
		}
		t.Tracer = r.tracer
		cfg.Timing = &t
	}
	id := r.calls.begin("machine.New", -1)
	m, err := machine.New(cfg)
	r.calls.end(id)
	r.m = m
	if m != nil {
		r.links = len(m.Cards)
	}
	return m, err
}

// connect opens the HAM-Offload runtime over either protocol.
func (r *rep) connect(p *machine.Proc, dmaProtocol bool, opts machine.ProtocolOptions) (*offload.Runtime, error) {
	id := r.calls.begin("machine.Connect", -1)
	var rt *offload.Runtime
	var err error
	if dmaProtocol {
		rt, err = machine.ConnectDMA(p, r.m, opts)
	} else {
		rt, err = machine.ConnectVEO(p, r.m, opts)
	}
	r.calls.end(id)
	r.rt = rt
	return rt, err
}

// warmUp runs n empty sync offloads round-robin over nodes before the timed
// phase, so lazy set-up is counted in set-up time.
func (r *rep) warmUp(nodes []offload.NodeID, n int) error {
	for i := 0; i < n; i++ {
		if _, err := offload.Sync(r.rt, nodes[i%len(nodes)], emptyFn.Bind()); err != nil {
			return err
		}
	}
	return nil
}

// startTimed ends set-up and opens the timed phase.
func (r *rep) startTimed(p *machine.Proc) {
	r.snap(&r.before)
	r.regBefore = registryCounters(r.tracer)
	r.simStart = p.Now()
	if r.profile != nil {
		r.profile(true)
	}
	r.first = cpuNow()
}

// stopTimed closes the timed phase.
func (r *rep) stopTimed(p *machine.Proc) {
	r.end = cpuNow()
	if r.profile != nil {
		r.profile(false)
	}
	r.simEnd = p.Now()
	r.snap(&r.after)
	r.regAfter = registryCounters(r.tracer)
}

// snap reads every layer counter.
func (r *rep) snap(c *counters) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.Mallocs, c.Bytes, c.GCs = ms.Mallocs, ms.TotalAlloc, ms.NumGC
	m := r.m
	c.Events = m.Eng.Events()
	c.Injected = m.Timing.Faults.Injected()
	c.Moved, c.Busy, c.Syscalls = 0, 0, 0
	for i, card := range m.Cards {
		if l, err := m.Fabric.Link(i); err == nil {
			for _, d := range []pcie.Direction{pcie.Down, pcie.Up} {
				c.Moved += l.Moved(d)
				c.Busy += l.BusyTime(d)
			}
		}
		if vp := card.Process(); vp != nil {
			c.Syscalls += vp.Syscalls()
		}
	}
	c.MaxQueue = int64(m.Eng.MaxQueueLen())
	if r.trk != nil {
		c.Transitions = r.trk.Transitions()
	}
	if rt := r.rt; rt != nil {
		c.Retries, c.Hedges, c.HedgeWins = rt.Retries(), rt.Hedges(), rt.HedgeWins()
		c.Denied, c.Offloads = rt.BudgetDenied(), rt.Offloads()
	}
}

// delta is the timed phase's change in every counter; MaxQueue is the
// high-water mark at its end.
func (r *rep) delta() counters {
	a, b := r.before, r.after
	return counters{
		Events: b.Events - a.Events, Injected: b.Injected - a.Injected,
		Moved: b.Moved - a.Moved, Busy: b.Busy - a.Busy, Syscalls: b.Syscalls - a.Syscalls,
		Retries: b.Retries - a.Retries, Hedges: b.Hedges - a.Hedges, HedgeWins: b.HedgeWins - a.HedgeWins,
		Denied: b.Denied - a.Denied, Offloads: b.Offloads - a.Offloads,
		MaxQueue: b.MaxQueue, Transitions: b.Transitions - a.Transitions,
		Mallocs: b.Mallocs - a.Mallocs, Bytes: b.Bytes - a.Bytes, GCs: b.GCs - a.GCs,
	}
}

// registryCounters sums each named counter over every node's metrics
// registry; nil when the tracer is off.
func registryCounters(t *trace.Tracer) map[string]int64 {
	if t == nil {
		return nil
	}
	out := map[string]int64{}
	for _, s := range t.Snapshots() {
		for _, c := range s.Counters {
			out[c.Name] += c.Value
		}
	}
	return out
}

// benchCost charges host time spent in the benchmark's own checks since
// the given cpuNow reading; the program's host figures exclude it.
func (r *rep) benchCost(since float64) { r.benchCPU += cpuNow() - since }

// hostSeconds is the program's host time over the timed phase.
func (r *rep) hostSeconds() float64 { return r.end - r.first - r.benchCPU }

// setupSeconds is the host time from before machine.New to the first
// timed request.
func (r *rep) setupSeconds() float64 { return r.first - r.begin }

// cpuNow is the process's CPU time so far, in seconds.
func cpuNow() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// call is one host-time span around a public call the benchmark makes.
type call struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the log's base
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"` // index of the enclosing call, -1 at top level
	Req    int64  `json:"req"`    // request id, -1 outside requests
}

// callLog keeps the spans in memory until the run ends. The benchmark calls
// the program from one simulated process at a time, so a stack of open
// spans gives every span its parent. A nil log records nothing.
type callLog struct {
	base  time.Time
	calls []call
	open  []int32
}

func newCallLog() *callLog { return &callLog{base: time.Now()} }

func (l *callLog) begin(name string, req int64) int32 {
	if l == nil {
		return -1
	}
	parent := int32(-1)
	if n := len(l.open); n > 0 {
		parent = l.open[n-1]
	}
	id := int32(len(l.calls))
	l.calls = append(l.calls, call{Name: name, Start: time.Since(l.base).Nanoseconds(), Parent: parent, Req: req})
	l.open = append(l.open, id)
	return id
}

func (l *callLog) end(id int32) {
	if l == nil {
		return
	}
	l.calls[id].End = time.Since(l.base).Nanoseconds()
	l.open = l.open[:len(l.open)-1]
}

// callStat aggregates the spans of one name.
type callStat struct {
	N   int   `json:"n"`
	Own int64 `json:"own_ns"` // total self time
}

// stats aggregates every span by name. A span's self time is its duration
// minus the part its children cover.
func (l *callLog) stats() map[string]callStat {
	child := make([]int64, len(l.calls))
	for _, c := range l.calls {
		if c.Parent >= 0 {
			child[c.Parent] += c.End - c.Start
		}
	}
	out := map[string]callStat{}
	for i, c := range l.calls {
		s := out[c.Name]
		s.N++
		s.Own += c.End - c.Start - child[i]
		out[c.Name] = s
	}
	return out
}

// write stores every span as a JSON array in the file at path.
func (l *callLog) write(path string) error {
	out, err := json.Marshal(l.calls)
	if err != nil {
		return err
	}
	return os.WriteFile(path, out, 0o644)
}
