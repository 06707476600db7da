package slots

import (
	"fmt"

	"hamoffload/internal/backend/adapter"
	"hamoffload/internal/core"
	"hamoffload/internal/simtime"
	"hamoffload/internal/trace"
	"hamoffload/internal/veos"
)

// Endpoint is one protocol's VE side of the ring: how the VE reads a
// receive flag, pulls the message it publishes, and pushes the result back.
type Endpoint interface {
	// LoadFlag reads the receive flag of slot once.
	LoadFlag(slot int) (uint64, error)
	// Fetch pulls the n-byte message of slot into VE memory, charging the
	// VE-side framework overhead, and returns it.
	Fetch(slot, n int) ([]byte, error)
	// Respond writes resp into the send slot paired with slot, raising its
	// flag with seq last.
	Respond(slot int, seq uint32, resp []byte) error
	// MissCost is the poll time a missed flag load adds to the idle clock
	// beyond the poll interval.
	MissCost() simtime.Duration
}

// respondRetries bounds the transient-error retry window of one result push.
const respondRetries = 64

// Target is the VE-side backend of both SX-Aurora protocols: it serves the
// ring's receive slots in order and answers each message in the paired
// send slot.
type Target struct {
	kctx  *veos.Ctx
	name  string
	self  core.NodeID
	total int
	nbuf  int
	ep    Endpoint
	heap  *adapter.VEHeap
	nt    *trace.NodeTracer
	names spanNames
}

// Main is the body of a protocol's ham_main kernel — the renamed main() of
// the target binary (§III-C): it runs the HAM-Offload runtime's message
// loop over ep until a terminate message arrives.
func Main(ctx *veos.Ctx, name string, self, total, nbuf int, ep Endpoint) (uint64, error) {
	card := ctx.Context.Process().Card()
	nt := card.Timing.Tracer.Node(self, name, ctx.P)
	t := &Target{
		kctx: ctx, name: name, self: core.NodeID(self), total: total, nbuf: nbuf, ep: ep,
		heap: &adapter.VEHeap{VE: card.Mem}, nt: nt, names: namesFor(name),
	}
	rt := core.NewTarget(t, VEArch)
	rt.SetTracer(nt)
	rt.SetTelemetry(card.Timing.Telemetry, ctx.P)
	if err := rt.Serve(); err != nil {
		return 1, err
	}
	return 0, nil
}

// Serve implements core.Target: the VE's message loop. It polls the next
// receive flag, backing off while idle; on a hit it fetches and dispatches
// the message and pushes the result, retrying only the push on transient
// faults — the handler has already run exactly once.
func (t *Target) Serve(s core.Server) error {
	card := t.kctx.Context.Process().Card()
	tm := card.Timing
	p := t.kctx.P
	seq := make([]uint32, t.nbuf)
	next := 0

	const backoffAfter = 500 * simtime.Microsecond
	interval := tm.HAMVEPollInterval
	var idle simtime.Duration

	for !s.Done() {
		if card.Crashed() {
			// The VE process died under us (injected crash): stop serving
			// instead of spinning on a dead machine.
			return fmt.Errorf("%s: serve aborted: %w", t.name, veos.ErrCrashed)
		}
		pollStart := t.nt.Now()
		flag, err := t.ep.LoadFlag(next)
		if err != nil {
			if core.IsTransient(err) {
				// An injected load glitch reads as a miss: back off one poll
				// interval and retry the load.
				t.nt.Instant(trace.PhaseFault, t.names.pollFault, int64(next))
				p.Sleep(interval)
				continue
			}
			return err
		}
		n, ok := Decode(flag, seq[next])
		if !ok {
			p.Sleep(interval)
			idle += interval + t.ep.MissCost()
			if idle >= backoffAfter && interval < tm.HAMVEPollInterval*512 {
				interval *= 2
			}
			continue
		}
		interval = tm.HAMVEPollInterval
		idle = 0
		m := mid(next, seq[next], t.nbuf)
		t.nt.Since(trace.PhasePoll, t.names.pollHit, m, pollStart)

		endFetch := t.nt.Begin(trace.PhaseFetch, t.names.fetch, m)
		msg, err := t.ep.Fetch(next, n)
		endFetch()
		if err != nil {
			if core.IsTransient(err) {
				// The flag is still set and the slot sequence untouched: the
				// next iteration re-polls the same slot and refetches, so a
				// transient fault delays the message, not drops it.
				t.nt.Instant(trace.PhaseFault, t.names.fetchFault, m)
				p.Sleep(interval)
				continue
			}
			return err
		}

		resp := s.Dispatch(msg)
		endResult := t.nt.Begin(trace.PhaseResult, t.names.result, m)
		rerr := t.ep.Respond(next, seq[next], resp)
		// Only the result push is retried, within a bounded window, so a
		// transient burst cannot wedge the serve loop forever.
		for tries := 0; rerr != nil && core.IsTransient(rerr) && tries < respondRetries; tries++ {
			t.nt.Instant(trace.PhaseRetry, t.names.respondRetry, m)
			p.Sleep(tm.HAMVEPollInterval)
			rerr = t.ep.Respond(next, seq[next], resp)
		}
		endResult()
		if rerr != nil {
			return rerr
		}
		seq[next]++
		next = (next + 1) % t.nbuf
	}
	return nil
}

// Self implements core.Node.
func (t *Target) Self() core.NodeID { return t.self }

// NumNodes implements core.Node.
func (t *Target) NumNodes() int { return t.total }

// Descriptor implements core.Node.
func (t *Target) Descriptor(n core.NodeID) core.NodeDescriptor {
	if n == t.self {
		return core.NodeDescriptor{
			Name:   fmt.Sprintf("ve%d", t.kctx.Context.Process().Card().ID),
			Arch:   VEArch,
			Device: "NEC VE Type 10B",
		}
	}
	if n == 0 {
		return core.NodeDescriptor{Name: "vh", Arch: "x86_64", Device: "Vector Host"}
	}
	return core.NodeDescriptor{Name: fmt.Sprintf("node%d", n)}
}

// Memory implements core.Node.
func (t *Target) Memory() core.LocalMemory { return t.heap }

// ChargeVector implements core.Node with the VE roofline model.
func (t *Target) ChargeVector(flops, bytes int64, cores int) {
	t.kctx.ChargeVector(flops, bytes, cores)
}

// ChargeScalar implements core.Node.
func (t *Target) ChargeScalar(ops int64) {
	t.kctx.ChargeScalar(ops)
}

var _ core.Target = (*Target)(nil)
