package main

import (
	"errors"
	"fmt"

	"hamoffload/gateway"
	"hamoffload/internal/faults"
	"hamoffload/internal/simtime"
	"hamoffload/internal/telemetry"
	"hamoffload/internal/topology"
	"hamoffload/machine"
	"hamoffload/offload"
	"hamoffload/sched"
	"hamoffload/sched/health"
)

// workload is one benchmark scenario. Each rep builds a fresh machine and
// runs n requests generated from the seed; warm offloads run inside set-up.
type workload struct {
	name string
	n    int
	warm int
	gen  func(seed uint64, n int) any
	run  func(r *rep, in any, n, warm int) error
	// calibrate makes the runner run set-up once before the first rep,
	// for workloads whose inputs depend on when the timed phase opens.
	calibrate bool
	// stresses lists which of the separated layers (see separated) the
	// workload was chosen to exercise; it must bypass the others, except
	// those in touches, which it runs too lightly to check either way.
	stresses, touches []string
}

var workloads = []workload{
	{name: "pingpong", n: 20000, warm: 64, gen: func(uint64, int) any { return nil }, run: runPingpong},
	{name: "veo_bulk", n: 48, warm: 8, gen: genBulk, run: runBulk, stresses: []string{"veob"}},
	// The gateway keeps its per-class SLO accounting in telemetry.SLO, so
	// serving runs a little telemetry code without a collector armed.
	{name: "serving", n: 240000, warm: 64, gen: genServing, run: runServing, calibrate: true,
		stresses: []string{"faults", "gateway"}, touches: []string{"telemetry"}},
	{name: "gray", n: 10000, warm: 64, gen: genGray, run: runGray, stresses: []string{"faults", "telemetry"}},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// emptyFn is Fig. 9's empty offload.
var emptyFn = offload.NewFunc0[offload.Unit]("perfbench.empty",
	func(*offload.Ctx) (offload.Unit, error) { return offload.Unit{}, nil })

// rng is a splitmix64 stream: every input of a run is drawn from it, so one
// seed always gives the same inputs.
type rng struct{ s uint64 }

func (g *rng) next() uint64 {
	g.s += 0x9e3779b97f4a7c15
	z := g.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// errCheck marks a failed output check: the run aborts instead of counting
// the request as served.
var errCheck = errors.New("perfbench: output check failed")

// request brackets one request in the call log.
func (r *rep) request(i int) func() {
	if r.calls == nil {
		return func() {}
	}
	id := r.calls.begin("request", int64(i))
	return func() { r.calls.end(id) }
}

// served records one request's simulated latency from when it was due.
func (r *rep) served(due, done simtime.Time) {
	r.lat = append(r.lat, done.Sub(due).Microseconds())
	if r.tracer != nil {
		r.windows = append(r.windows, window{due, done})
	}
}

// --- pingpong: Fig. 9's fast path ----------------------------------------

func runPingpong(r *rep, _ any, n, warm int) error {
	m, err := r.newMachine(machine.Config{VEs: 1})
	if err != nil {
		return err
	}
	r.lat = make([]float64, 0, n)
	return m.RunMain(func(p *machine.Proc) error {
		rt, err := r.connect(p, true, machine.ProtocolOptions{})
		if err != nil {
			return err
		}
		defer func() { _ = rt.Finalize() }()
		if err := r.warmUp([]offload.NodeID{1}, warm); err != nil {
			return err
		}
		r.startTimed(p)
		for i := 0; i < n; i++ {
			done := r.request(i)
			due := p.Now()
			id := r.calls.begin("core.Bind", int64(i))
			fn := emptyFn.Bind()
			r.calls.end(id)
			id = r.calls.begin("core.Async", int64(i))
			fut := offload.Async(rt, 1, fn)
			r.calls.end(id)
			id = r.calls.begin("core.Future.Get", int64(i))
			_, err := fut.Get()
			r.calls.end(id)
			done()
			r.attempted++
			if err != nil {
				return fmt.Errorf("%w: pingpong request %d: %v", errCheck, i, err)
			}
			r.served(due, p.Now())
		}
		r.stopTimed(p)
		if got := r.after.Offloads - r.before.Offloads; got != int64(n) {
			return fmt.Errorf("%w: runtime counted %d offloads for %d requests", errCheck, got, n)
		}
		return nil
	})
}

// --- veo_bulk: VEO protocol, bulk Put / kernel / Get ----------------------

const bulkElems = 1 << 17 // 1 MiB of float64

// bulkInput is a pool of seeded vectors and a per-request scale factor.
type bulkInput struct {
	pool  [4][]float64
	scale []float64
}

func genBulk(seed uint64, n int) any {
	g := rng{seed ^ 0xB01C}
	in := &bulkInput{scale: make([]float64, n)}
	for k := range in.pool {
		v := make([]float64, bulkElems)
		for j := range v {
			v[j] = float64(int64(g.next()>>40)-(1<<23)) / 1024
		}
		in.pool[k] = v
	}
	for i := range in.scale {
		in.scale[i] = float64(1+g.next()%15) / 8
	}
	return in
}

// scaleSum scales a VE-resident vector in place and returns its sum.
var scaleSum = offload.NewFunc3[float64]("perfbench.scale_sum",
	func(c *offload.Ctx, buf offload.BufferPtr[float64], n int64, k float64) (float64, error) {
		v, err := offload.ReadLocal(c, buf, 0, n)
		if err != nil {
			return 0, err
		}
		s := 0.0
		for i := range v {
			v[i] *= k
			s += v[i]
		}
		c.ChargeVector(2*n, 16*n, 8)
		return s, offload.WriteLocal(c, buf, 0, v)
	})

func runBulk(r *rep, input any, n, warm int) error {
	in := input.(*bulkInput)
	m, err := r.newMachine(machine.Config{VEs: 2})
	if err != nil {
		return err
	}
	r.lat = make([]float64, 0, n)
	nodes := []offload.NodeID{1, 2}
	return m.RunMain(func(p *machine.Proc) error {
		rt, err := r.connect(p, false, machine.ProtocolOptions{})
		if err != nil {
			return err
		}
		defer func() { _ = rt.Finalize() }()
		bufs := make([]offload.BufferPtr[float64], len(nodes))
		for i, node := range nodes {
			if bufs[i], err = offload.Allocate[float64](rt, node, bulkElems); err != nil {
				return err
			}
		}
		out := make([]float64, bulkElems)
		if err := r.warmUp(nodes, warm); err != nil {
			return err
		}
		r.startTimed(p)
		for i := 0; i < n; i++ {
			done := r.request(i)
			due := p.Now()
			vec, k, buf := in.pool[i%len(in.pool)], in.scale[i], bufs[i%len(bufs)]
			id := r.calls.begin("core.Put", int64(i))
			err := offload.Put(rt, vec, buf)
			r.calls.end(id)
			var sum float64
			if err == nil {
				id = r.calls.begin("core.Bind", int64(i))
				fn := scaleSum.Bind(buf, bulkElems, k)
				r.calls.end(id)
				id = r.calls.begin("core.Async", int64(i))
				fut := offload.Async(rt, buf.Node, fn)
				r.calls.end(id)
				id = r.calls.begin("core.Future.Get", int64(i))
				sum, err = fut.Get()
				r.calls.end(id)
			}
			if err == nil {
				id = r.calls.begin("core.Get", int64(i))
				err = offload.Get(rt, buf, out)
				r.calls.end(id)
			}
			doneAt := p.Now()
			done()
			r.attempted++
			if err != nil {
				return fmt.Errorf("%w: veo_bulk request %d: %v", errCheck, i, err)
			}
			t := cpuNow()
			want := 0.0
			for j, v := range vec {
				if out[j] != v*k {
					return fmt.Errorf("%w: veo_bulk request %d: element %d is %g, want %g", errCheck, i, j, out[j], v*k)
				}
				want += v * k
			}
			if sum != want {
				return fmt.Errorf("%w: veo_bulk request %d: kernel sum %g, host sum %g", errCheck, i, sum, want)
			}
			r.benchCost(t)
			r.served(due, doneAt)
		}
		r.stopTimed(p)
		return nil
	})
}

// --- serving: open loop through the gateway -------------------------------

// Serving shape: a diurnal triangle wave of inter-arrival gaps between
// servingPeakNS and servingTroughNS with a period of servingPeriod
// arrivals, uniform 0.5x..1.5x jitter, and bursts of 32 arrivals at a
// quarter gap opened by roughly one arrival in 96.
const (
	servingVEs      = 8
	servingPeakNS   = 250
	servingTroughNS = 2500
	servingPeriod   = 7500
)

// arrival is one generated serving request.
type arrival struct {
	gap    simtime.Duration
	class  gateway.Class
	tenant int
	work   int64
}

// servingInput is the generated arrival schedule plus the simulated time at
// which set-up ends, learned by the runner's calibration pass (zero until
// then). Set-up spends seconds of simulated time starting eight VE
// processes, so the gray window must be placed relative to it.
type servingInput struct {
	arrivals []arrival
	start    simtime.Time
}

func genServing(seed uint64, n int) any {
	g := rng{seed ^ 0x5E4F}
	out := make([]arrival, n)
	period := min(n, servingPeriod)
	burst := 0
	for i := range out {
		const scale = 1 << 16
		tri := (i % period) * 2 * scale / period
		if tri > scale {
			tri = 2*scale - tri
		}
		base := servingTroughNS - (servingTroughNS-servingPeakNS)*int64(tri)/scale
		gap := base * int64(50+g.next()%101) / 100
		if burst > 0 {
			burst--
			gap /= 4
		} else if g.next()%96 == 0 {
			burst = 32
		}
		r := g.next()
		a := arrival{gap: simtime.Duration(max(gap, 1)) * simtime.Nanosecond, work: int64(1 + (r>>32)%4)}
		switch r % 4 { // 25% latency-critical, 50% batch, 25% best-effort
		case 0:
			a.class = gateway.LatencyCritical
		case 1, 2:
			a.class = gateway.Batch
		default:
			a.class = gateway.BestEffort
		}
		switch (r >> 16) % 4 { // 25% metered, 50% gold, 25% silver
		case 0:
			a.tenant = 0
		case 1, 2:
			a.tenant = 1
		default:
			a.tenant = 2
		}
		out[i] = a
	}
	return &servingInput{arrivals: out}
}

// servingWork is a roofline-charged vector op of a few microseconds, so the
// fleet is VE-bound and queues build at the diurnal peaks.
var servingWork = offload.NewFunc1[offload.Unit]("perfbench.serving.work",
	func(c *offload.Ctx, n int64) (offload.Unit, error) {
		c.ChargeVector(n*6_000_000, n*750_000, 8)
		return offload.Unit{}, nil
	})

func runServing(r *rep, input any, n, warm int) error {
	in := input.(*servingInput)
	// The gray window degrades VE 1 by 4x over the middle ~30% of the
	// expected timed phase. The calibration pass runs set-up with the
	// window out of reach and records when the timed phase opens.
	calibrating := in.start == 0
	meanGap := simtime.Duration((servingPeakNS+servingTroughNS)/2) * simtime.Nanosecond
	expected := meanGap * simtime.Duration(n)
	from := in.start.Add(expected * 35 / 100)
	until := in.start.Add(expected * 65 / 100)
	if calibrating {
		from, until = 1<<61, 1<<62
	}
	timing := topology.DefaultTiming()
	timing.HAMVEPollInterval = 2 * simtime.Microsecond
	m, err := r.newMachine(machine.Config{
		VEs:    servingVEs,
		Timing: &timing,
		Faults: &faults.Plan{Rules: []faults.Rule{
			{Kind: faults.SlowDown, Site: faults.SiteAny, Node: 0, Factor: 4, From: from, Until: until},
		}},
	})
	if err != nil {
		return err
	}
	tickets := make([]*gateway.Ticket[offload.Unit], 0, n)
	// Per admitted request: when it was due, and how late it was submitted.
	dues := make([]simtime.Time, 0, n)
	late := make([]simtime.Duration, 0, n)
	return m.RunMain(func(p *machine.Proc) error {
		rt, err := r.connect(p, true, machine.ProtocolOptions{})
		if err != nil {
			return err
		}
		defer func() { _ = rt.Finalize() }()
		nodes := make([]offload.NodeID, servingVEs)
		for i := range nodes {
			nodes[i] = offload.NodeID(i + 1)
		}
		// Warm up on the plain runtime: the gateway arms batching on it.
		if err := r.warmUp(nodes, warm); err != nil {
			return err
		}
		id := r.calls.begin("gateway.New", -1)
		gw, err := gateway.New[offload.Unit](rt, nodes, gateway.Config{
			MaxQueued: 512,
			Window:    6,
			MaxBatch:  3,
			Tenants: []gateway.TenantConfig{
				{Name: "metered", Burst: 64, Refill: 6 * machine.Microsecond},
				{Name: "gold"},
				{Name: "silver"},
			},
			SLOTargets: [gateway.NumClasses]simtime.Duration{
				120 * simtime.Microsecond, 500 * simtime.Microsecond, 2 * simtime.Millisecond,
			},
			SLOWindow: 5 * simtime.Millisecond,
		})
		r.calls.end(id)
		if err != nil {
			return err
		}
		if calibrating {
			in.start = p.Now()
			return nil
		}
		r.startTimed(p)
		if p.Now() != in.start {
			return fmt.Errorf("%w: serving timed phase opened at %v, calibrated %v", errCheck, p.Now(), in.start)
		}
		due := p.Now()
		for i, a := range in.arrivals[:n] {
			// The generator is a simulated process that sleeps until each
			// arrival is due. Submit and Poll take simulated time, so it can
			// fall behind; a late arrival is submitted at once and its
			// latency still counts from when it was due.
			due = due.Add(a.gap)
			if now := p.Now(); now < due {
				p.Sleep(due.Sub(now))
			} else if now > due {
				r.genLate++
				r.genLateMax = max(r.genLateMax, now.Sub(due))
			}
			if i%8 == 0 {
				id := r.calls.begin("gateway.Poll", int64(i))
				gw.Poll()
				r.calls.end(id)
			}
			done := r.request(i)
			id := r.calls.begin("core.Bind", int64(i))
			fn := servingWork.Bind(a.work)
			r.calls.end(id)
			lateBy := p.Now().Sub(due)
			id = r.calls.begin("gateway.Submit", int64(i))
			tk, err := gw.Submit(a.tenant, a.class, fn)
			r.calls.end(id)
			done()
			r.attempted++
			if err != nil {
				if !gateway.IsRejection(err) {
					return fmt.Errorf("%w: serving arrival %d: %v", errCheck, i, err)
				}
				r.refused++
				continue
			}
			tickets = append(tickets, tk)
			dues = append(dues, due)
			late = append(late, lateBy)
		}
		id = r.calls.begin("gateway.Drain", -1)
		gw.Drain()
		r.calls.end(id)
		r.stopTimed(p)

		rep := gw.Report()
		if rep.Submitted != int64(n) || int64(len(tickets))+rep.Rejected() != int64(n) ||
			int64(r.refused) != rep.Rejected() {
			return fmt.Errorf("%w: serving offered %d, admitted %d, refused %d, gateway counted %d submitted and %d rejected",
				errCheck, n, len(tickets), r.refused, rep.Submitted, rep.Rejected())
		}
		r.gw = newGatewayStats(rep)
		r.latLC = make([]float64, 0, len(tickets))
		for i, tk := range tickets {
			lat, ok := tk.Latency()
			if !ok {
				return fmt.Errorf("%w: serving ticket never settled", errCheck)
			}
			if err := tk.Err(); err != nil {
				return fmt.Errorf("%w: serving request failed: %v", errCheck, err)
			}
			// Ticket latency runs from Submit; count from when it was due.
			lat += late[i]
			us := lat.Microseconds()
			r.lat = append(r.lat, us)
			if r.tracer != nil {
				r.windows = append(r.windows, window{dues[i], dues[i].Add(lat)})
			}
			if tk.Class == gateway.LatencyCritical {
				r.latLC = append(r.latLC, us)
			}
		}
		return nil
	})
}

// gatewayStats is the part of gateway.Report the per-layer metrics use.
type gatewayStats struct {
	Submitted, Steals, RejQuota, RejShare, MaxQueue int64
}

func newGatewayStats(rep gateway.Report) gatewayStats {
	s := gatewayStats{Submitted: rep.Submitted, Steals: rep.Steals}
	for _, c := range rep.Classes {
		s.RejQuota += c.RejectedQuota
		s.RejShare += c.RejectedShare
	}
	for _, ve := range rep.VEs {
		s.MaxQueue = max(s.MaxQueue, int64(ve.MaxQueue))
	}
	return s
}

// --- gray: resilience under a fail-slow VE and dense faults ---------------

const grayVec = 2048

// grayInput is each request's seeded kernel key.
type grayInput struct{ keys []int64 }

func genGray(seed uint64, n int) any {
	g := rng{seed ^ 0x6EA7}
	in := &grayInput{keys: make([]int64, n)}
	for i := range in.keys {
		in.keys[i] = int64(g.next() >> 44)
	}
	return in
}

// grayFn returns a vector derived from its key; the host recomputes it.
var grayFn = offload.NewFunc2[[]float64]("perfbench.gray.vec",
	func(c *offload.Ctx, n, key int64) ([]float64, error) {
		out := make([]float64, n)
		for i := range out {
			out[i] = grayElem(key, i)
		}
		return out, nil
	})

func grayElem(key int64, i int) float64 { return float64(key*31+int64(i)) / 4 }

// classified reports whether err is one of the runtime's documented
// failure classes.
func classified(err error) bool {
	return offload.IsTransient(err) || errors.Is(err, offload.ErrNodeFailed) ||
		errors.Is(err, offload.ErrOffloadTimeout) || errors.Is(err, offload.ErrPayloadCorrupt)
}

func runGray(r *rep, input any, n, warm int) error {
	in := input.(*grayInput)
	// The telemetry collector runs with causal flows armed.
	col := telemetry.New(telemetry.Config{
		Interval:  5 * simtime.Microsecond,
		SLOTarget: 60 * simtime.Microsecond,
		SLOWindow: 250 * simtime.Microsecond,
		Flows:     true,
	})
	m, err := r.newMachine(machine.Config{
		VEs:       2,
		Telemetry: col,
		Faults: &faults.Plan{Seed: r.seed ^ 0xF417, Rules: []faults.Rule{
			{Kind: faults.SlowDown, Site: faults.SiteAny, Node: 0, Factor: 10, Until: simtime.Time(1 << 62)},
			{Kind: faults.Jitter, Site: faults.SiteAny, Node: faults.AnyNode, Rate: 0.05, JitterMax: 4 * simtime.Microsecond},
			{Kind: faults.DMAError, Site: faults.SiteUserDMA, Node: faults.AnyNode, Rate: 0.002},
			{Kind: faults.BitFlip, Node: faults.AnyNode, Rate: 0.002},
		}},
	})
	if err != nil {
		return err
	}
	r.lat = make([]float64, 0, n)
	nodes := []offload.NodeID{1, 2}
	return m.RunMain(func(p *machine.Proc) error {
		var trk *health.Tracker
		rt, err := r.connect(p, true, machine.ProtocolOptions{
			BufSize: 1 << 16,
			Retry: offload.FaultTolerance{
				MaxRetries:  4,
				BackoffBase: machine.Microsecond,
				BackoffMax:  20 * machine.Microsecond,
				Seed:        r.seed,
			},
			Hedge: offload.HedgePolicy{
				Delay:   40 * machine.Microsecond,
				Targets: nodes,
				Healthy: func(n offload.NodeID) bool { return trk == nil || trk.Allows(n) },
				Seed:    r.seed,
			},
			RetryBudget: offload.RetryBudget{Tokens: 64, Refill: 50 * machine.Microsecond},
		})
		if err != nil {
			return err
		}
		defer func() { _ = rt.Finalize() }()
		trk = health.New(health.Config{
			OutlierFactor:  3,
			OutlierStrikes: 4,
			FailureStrikes: 3,
			OpenFor:        5 * machine.Millisecond,
		}, nodes, rt.SimNow)
		trk.SetTelemetry(col)
		r.trk = trk
		pol := sched.HealthAware(sched.RoundRobin(), trk)
		inflight := make([]int, len(nodes))
		if err := r.warmUp(nodes, warm); err != nil {
			return err
		}
		r.startTimed(p)
		for i := 0; i < n; i++ {
			done := r.request(i)
			due := p.Now()
			id := r.calls.begin("sched.Pick", int64(i))
			node := nodes[pol.Pick(i, nodes, inflight)]
			r.calls.end(id)
			id = r.calls.begin("core.Bind", int64(i))
			fn := grayFn.Bind(grayVec, in.keys[i])
			r.calls.end(id)
			id = r.calls.begin("core.Async", int64(i))
			fut := offload.Async(rt, node, fn)
			r.calls.end(id)
			id = r.calls.begin("core.Future.Get", int64(i))
			got, err := fut.Get()
			r.calls.end(id)
			doneAt := p.Now()
			id = r.calls.begin("health.Observe", int64(i))
			trk.Observe(node, doneAt.Sub(due), err != nil)
			r.calls.end(id)
			done()
			r.attempted++
			if err != nil {
				if !classified(err) {
					return fmt.Errorf("%w: gray request %d: unclassified error %v", errCheck, i, err)
				}
				r.failed++
				continue
			}
			t := cpuNow()
			if len(got) != grayVec {
				return fmt.Errorf("%w: gray request %d: %d elements, want %d", errCheck, i, len(got), grayVec)
			}
			for j, v := range got {
				if v != grayElem(in.keys[i], j) {
					return fmt.Errorf("%w: gray request %d: element %d is %g, want %g", errCheck, i, j, v, grayElem(in.keys[i], j))
				}
			}
			r.benchCost(t)
			r.served(due, doneAt)
		}
		r.stopTimed(p)
		return nil
	})
}
