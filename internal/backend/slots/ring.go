package slots

import (
	"errors"
	"fmt"

	"hamoffload/internal/backend/adapter"
	"hamoffload/internal/core"
	"hamoffload/internal/simtime"
	"hamoffload/internal/trace"
	"hamoffload/internal/vecore"
	"hamoffload/internal/veo"
	"hamoffload/internal/veos"
)

// VEArch labels the VE binary in node descriptors and HAM's translation
// tables.
const VEArch = "aurora-ve"

var hostModel = vecore.DefaultHostModel()

// Link is one protocol's transport to one connected VE: the communication
// area built by Params.Attach and the operations that move bytes across
// it. The ring owns slot choice and sequence numbers; a Link only moves the
// bytes of the slot it is handed.
type Link interface {
	// ConnectKernel names the VE kernel that hands the communication area
	// to the VE process, with its leading arguments; the ring appends the
	// node's id and the application's node count.
	ConnectKernel() (string, []uint64)
	// Post writes msg into the receive buffer of slot, then raises the
	// slot's flag with seq. mid correlates the flag-write span.
	Post(slot int, seq uint32, mid int64, msg []byte) error
	// Probe reads the result flag of slot once; ok reports that it carries
	// seq, and resp is then the result.
	Probe(slot int, seq uint32) (resp []byte, ok bool, err error)
	// PollGap is the host time a missed probe costs on top of the probe
	// itself; zero when the probe's own latency paces the loop.
	PollGap() simtime.Duration
	// Release frees the communication area once its VE process is gone.
	Release() error
}

// Params is what a protocol's Connect hands the ring: its name (error
// prefix, trace lane and span-name stem), its VE library, the ring
// geometry and timeout from its Options, and how to build the
// communication area for a freshly loaded VE process.
type Params struct {
	Name           string
	Library        string
	NumBuffers     int
	BufSize        int
	NodeBase       int
	TotalNodes     int
	OffloadTimeout simtime.Duration
	Attach         func(p *simtime.Proc, nt *trace.NodeTracer, proc *veo.Proc) (Link, error)
}

// Geometry applies the ring defaults both protocols share to their
// options: 8 slots per direction of 4 KiB each, and a 248-byte inline
// result, so flag plus inline result make one 256-byte slot. The inline
// size is rounded up to whole words, the granularity of SHM stores and of
// flag adjacency.
func Geometry(numBuffers, bufSize, resultInline int) (int, int, int) {
	if numBuffers <= 0 {
		numBuffers = 8
	}
	if bufSize <= 0 {
		bufSize = 4096
	}
	if resultInline <= 0 {
		resultInline = 248
	}
	return numBuffers, bufSize, (resultInline + 7) &^ 7
}

// spanNames are one protocol's span names, built once per ring so the
// per-message paths never concatenate strings.
type spanNames struct {
	call, wait, pollFault, pollHit, fetch, fetchFault, result, respondRetry string
}

func namesFor(proto string) spanNames {
	return spanNames{
		call:         proto + "-call",
		wait:         proto + "-wait",
		pollFault:    proto + "-poll-fault",
		pollHit:      proto + "-poll-hit",
		fetch:        proto + "-fetch",
		fetchFault:   proto + "-fetch-fault",
		result:       proto + "-result",
		respondRetry: proto + "-respond-retry",
	}
}

// mid builds the protocol-level message correlator for a slot/sequence
// pair; both sides tag their spans with it so one message lines up.
func mid(slot int, seq uint32, nbuf int) int64 {
	return int64(seq)*int64(nbuf) + int64(slot)
}

// handle tracks one in-flight offload. It pins the conn it was issued on,
// so stale handles keep failing against a dead conn after RecoverNode
// builds a fresh one.
type handle struct {
	target core.NodeID
	c      *conn
	slot   int
	seq    uint32
	resp   []byte
	done   bool
}

// conn is the host-side ring state for one VE target.
type conn struct {
	proc  *veo.Proc
	card  *veos.Card
	link  Link
	seq   []uint32  // next send sequence per slot
	inUse []*handle // outstanding offload per slot
	next  int       // round-robin slot cursor; the VE serves in ring order
	dead  bool      // VE process crashed; reject work until RecoverNode
}

// Host is the initiator-side backend of both SX-Aurora protocols on the
// Vector Host: a one-sided ring of message slots per VE, published by
// sequence-numbered flags (Fig. 5, Fig. 8). All methods must run on the
// simulated process passed to Connect — the host runtime is
// single-threaded, like the C++ original's communication layer.
type Host struct {
	p     *simtime.Proc
	prm   Params
	total int
	conns []*conn // index = NodeID - NodeBase - 1
	descs []core.NodeDescriptor
	mem   core.LocalMemory
	nt    *trace.NodeTracer // nil when the cards' Timing has no Tracer
	names spanNames
}

// Connect runs the application setup on every card — VE process creation
// and library load via VEO, the protocol's communication area and connect
// kernel, and the asynchronous start of ham_main. Cards become nodes
// NodeBase+1 .. NodeBase+len(cards).
func Connect(p *simtime.Proc, cards []*veos.Card, prm Params) (*Host, error) {
	if len(cards) == 0 {
		return nil, fmt.Errorf("%s: no target cards", prm.Name)
	}
	h := &Host{p: p, prm: prm, total: prm.TotalNodes, names: namesFor(prm.Name)}
	if h.total == 0 {
		h.total = len(cards) + 1
	}
	h.mem = &adapter.HostHeap{H: cards[0].Host}
	h.nt = cards[0].Timing.Tracer.Node(0, prm.Name, p)
	h.descs = append(h.descs, core.NodeDescriptor{Name: "vh", Arch: "x86_64", Device: "Intel Xeon Gold 6126 (VH)"})
	for i, card := range cards {
		c, err := h.connect(card, prm.NodeBase+i+1)
		if err != nil {
			return nil, err
		}
		h.conns = append(h.conns, c)
		h.descs = append(h.descs, core.NodeDescriptor{
			Name:   fmt.Sprintf("ve%d", card.ID),
			Arch:   VEArch,
			Device: "NEC VE Type 10B",
		})
	}
	return h, nil
}

func (h *Host) connect(card *veos.Card, self int) (*conn, error) {
	proc, err := veo.ProcCreate(h.p, card)
	if err != nil {
		return nil, err
	}
	// A failed connect must not leak the VE process or the area.
	ok := false
	defer func() {
		if !ok {
			_ = proc.Destroy(h.p)
		}
	}()
	lib, err := proc.LoadLibrary(h.p, h.prm.Library)
	if err != nil {
		return nil, err
	}
	link, err := h.prm.Attach(h.p, h.nt, proc)
	if err != nil {
		return nil, err
	}
	defer func() {
		if !ok {
			_ = link.Release()
		}
	}()
	ctx := proc.OpenContext(h.p)
	kernel, args := link.ConnectKernel()
	commInit, err := lib.GetSym(h.p, kernel)
	if err != nil {
		return nil, err
	}
	args = append(args, uint64(self), uint64(h.total))
	if _, err := ctx.CallAsync(h.p, commInit, args...).CallWaitResult(h.p); err != nil {
		return nil, fmt.Errorf("%s: %s: %w", h.prm.Name, kernel, err)
	}
	hamMain, err := lib.GetSym(h.p, "ham_main")
	if err != nil {
		return nil, err
	}
	// ham_main never returns until terminated; do not wait on it.
	ctx.CallAsync(h.p, hamMain)
	ok = true
	return &conn{
		proc:  proc,
		card:  card,
		link:  link,
		seq:   make([]uint32, h.prm.NumBuffers),
		inUse: make([]*handle, h.prm.NumBuffers),
	}, nil
}

func (h *Host) conn(target core.NodeID) (*conn, error) {
	i := int(target) - h.prm.NodeBase - 1
	if i < 0 || i >= len(h.conns) {
		return nil, fmt.Errorf("%s: no target node %d", h.prm.Name, target)
	}
	return h.conns[i], nil
}

func (h *Host) mid(slot int, seq uint32) int64 { return mid(slot, seq, h.prm.NumBuffers) }

// alive is the dead-node rule. A conn dies when its VE process crashes,
// whether a failed VEO step reported it or the card's crash state shows it
// — the DMA protocol's host polls local memory, where a dead VE is just
// silence — and stays dead until RecoverNode replaces it.
func (h *Host) alive(c *conn, target core.NodeID) error {
	if c.dead || c.card.Crashed() {
		c.dead = true
		return fmt.Errorf("%s: node %d: %w", h.prm.Name, target, core.ErrNodeFailed)
	}
	return nil
}

// live looks up target's conn and applies the dead-node rule to it.
func (h *Host) live(target core.NodeID) (*conn, error) {
	c, err := h.conn(target)
	if err != nil {
		return nil, err
	}
	return c, h.alive(c, target)
}

// stepErr classifies a failed protocol step: a crashed VE process marks the
// conn dead and surfaces core.ErrNodeFailed; everything else — notably
// injected transient DMA errors, which core's retry layer may resubmit —
// passes through unchanged.
func (h *Host) stepErr(c *conn, target core.NodeID, err error) error {
	if errors.Is(err, veos.ErrCrashed) {
		c.dead = true
		return fmt.Errorf("%s: node %d: %w", h.prm.Name, target, core.ErrNodeFailed)
	}
	return err
}

// Call implements core.Initiator: post the message into the next slot of the
// target's ring, draining the slot's previous offload first.
func (h *Host) Call(target core.NodeID, msg []byte) (core.Handle, error) {
	c, err := h.live(target)
	if err != nil {
		return nil, err
	}
	if len(msg) > h.prm.BufSize || len(msg) > MaxLen {
		return nil, fmt.Errorf("%s: message of %d bytes exceeds buffer size %d", h.prm.Name, len(msg), h.prm.BufSize)
	}
	callStart := h.nt.Now()
	h.p.Sleep(c.card.Timing.HAMHostOverhead)
	slot := c.next
	// The host manages the buffers: a slot is free again once the result of
	// its previous use has been consumed.
	if prev := c.inUse[slot]; prev != nil {
		if _, err := h.wait(prev); err != nil {
			return nil, fmt.Errorf("%s: draining slot %d: %w", h.prm.Name, slot, err)
		}
	}
	seq := c.seq[slot]
	m := h.mid(slot, seq)
	if err := c.link.Post(slot, seq, m, msg); err != nil {
		return nil, h.stepErr(c, target, err)
	}
	// Commit the slot only now: an attempt aborted before its flag was set
	// leaves the VE — which serves its receive slots in ring order — still
	// waiting for this slot and sequence number. Advancing either cursor
	// earlier would desynchronise the protocol; a retried attempt must land
	// in the same slot.
	c.seq[slot]++
	c.next = (c.next + 1) % len(c.seq)
	hd := &handle{target: target, c: c, slot: slot, seq: seq}
	c.inUse[slot] = hd
	h.nt.Since(trace.PhaseCall, h.names.call, m, callStart)
	return hd, nil
}

// probe checks hd's result flag once and completes hd on a hit. A transient
// fault on the probe reads as a miss: the next probe retries it and the
// offload itself is unharmed.
func (h *Host) probe(hd *handle) (bool, error) {
	c := hd.c
	resp, ok, err := c.link.Probe(hd.slot, hd.seq)
	if err != nil {
		if core.IsTransient(err) {
			h.nt.Instant(trace.PhaseFault, h.names.pollFault, h.mid(hd.slot, hd.seq))
			return false, nil
		}
		return false, h.stepErr(c, hd.target, err)
	}
	if !ok {
		return false, nil
	}
	hd.resp = resp
	hd.done = true
	if c.inUse[hd.slot] == hd {
		c.inUse[hd.slot] = nil
	}
	return true, nil
}

// wait probes until hd completes, its node dies, or OffloadTimeout passes.
// The timeout is checked after every probe — hit, miss or absorbed fault.
func (h *Host) wait(hd *handle) ([]byte, error) {
	c := hd.c
	defer h.nt.Begin(trace.PhaseWait, h.names.wait, h.mid(hd.slot, hd.seq))()
	start := h.p.Now()
	for !hd.done {
		if err := h.alive(c, hd.target); err != nil {
			return nil, err
		}
		ok, err := h.probe(hd)
		if err != nil {
			return nil, err
		}
		if gap := c.link.PollGap(); !ok && gap > 0 {
			h.p.Sleep(gap)
		}
		if d := h.prm.OffloadTimeout; d > 0 && !hd.done && h.p.Now().Sub(start) >= d {
			// The slot stays leased to the lost offload (bounded by
			// NumBuffers); RecoverNode rebuilds the communication area.
			return nil, fmt.Errorf("%s: node %d slot %d: %w", h.prm.Name, hd.target, hd.slot, core.ErrOffloadTimeout)
		}
	}
	h.p.Sleep(c.card.Timing.HAMHostOverhead)
	return hd.resp, nil
}

// Wait implements core.Initiator.
func (h *Host) Wait(hh core.Handle) ([]byte, error) {
	hd, ok := hh.(*handle)
	if !ok {
		return nil, fmt.Errorf("%s: foreign handle %T", h.prm.Name, hh)
	}
	return h.wait(hd)
}

// Poll implements core.Initiator with one probe.
func (h *Host) Poll(hh core.Handle) ([]byte, bool, error) {
	hd, ok := hh.(*handle)
	if !ok {
		return nil, false, fmt.Errorf("%s: foreign handle %T", h.prm.Name, hh)
	}
	if hd.done {
		return hd.resp, true, nil
	}
	if err := h.alive(hd.c, hd.target); err != nil {
		return nil, false, err
	}
	// Charging the poll gap up front keeps user-level Test() busy-wait loops
	// advancing simulated time.
	if gap := hd.c.link.PollGap(); gap > 0 {
		h.p.Sleep(gap)
	}
	done, err := h.probe(hd)
	if err != nil || !done {
		return nil, false, err
	}
	return hd.resp, true, nil
}

// Put implements core.Initiator through veo_write_mem — bulk data exchange
// stays on the VEO API in both protocols, as in the paper. The host-side
// staging copy is an artifact of the Go API taking slices and is not
// charged: on the real platform user data already lives in host memory.
func (h *Host) Put(target core.NodeID, data []byte, dstAddr uint64) error {
	c, err := h.live(target)
	if err != nil {
		return err
	}
	stage, err := c.card.Host.Alloc(int64(len(data)))
	if err != nil {
		return err
	}
	defer func() { _ = c.card.Host.Free(stage) }()
	if err := c.card.Host.Mem.WriteAt(data, stage); err != nil {
		return err
	}
	return h.stepErr(c, target, c.proc.WriteMem(h.p, dstAddr, uint64(stage), int64(len(data))))
}

// Get implements core.Initiator through veo_read_mem.
func (h *Host) Get(target core.NodeID, srcAddr uint64, dst []byte) error {
	c, err := h.live(target)
	if err != nil {
		return err
	}
	stage, err := c.card.Host.Alloc(int64(len(dst)))
	if err != nil {
		return err
	}
	defer func() { _ = c.card.Host.Free(stage) }()
	if err := c.proc.ReadMem(h.p, uint64(stage), srcAddr, int64(len(dst))); err != nil {
		return h.stepErr(c, target, err)
	}
	return c.card.Host.Mem.ReadAt(dst, stage)
}

// Self implements core.Node.
func (h *Host) Self() core.NodeID { return 0 }

// NumNodes implements core.Node.
func (h *Host) NumNodes() int { return len(h.conns) + 1 }

// Descriptor implements core.Node.
func (h *Host) Descriptor(n core.NodeID) core.NodeDescriptor {
	if n == 0 {
		return h.descs[0]
	}
	i := int(n) - h.prm.NodeBase
	if i < 1 || i >= len(h.descs) {
		return core.NodeDescriptor{Name: "invalid"}
	}
	return h.descs[i]
}

// Memory implements core.Node.
func (h *Host) Memory() core.LocalMemory { return h.mem }

// ChargeVector implements core.Node: host-side kernel work advances the
// host process's simulated clock with the host roofline model.
func (h *Host) ChargeVector(flops, bytes int64, cores int) {
	h.p.Sleep(hostModel.VectorTime(flops, bytes, cores))
}

// ChargeScalar implements core.Node.
func (h *Host) ChargeScalar(ops int64) {
	h.p.Sleep(simtime.Duration(float64(ops) / 2.6e9 * float64(simtime.Second)))
}

// MaxMessageLen implements core.Initiator: a wire message must fit one
// message buffer and its length must be publishable in a slot flag word.
func (h *Host) MaxMessageLen() int {
	if h.prm.BufSize < MaxLen {
		return h.prm.BufSize
	}
	return MaxLen
}

// Clock implements core.Initiator: the host process's simulated clock.
func (h *Host) Clock() core.SimClock { return h.p }

// RecoverNode implements core.Initiator: it reaps the dead VE process,
// releases the old communication area, and re-runs the connect sequence —
// fresh process, library load, connect kernel, ham_main. Outstanding
// handles stay pinned to the dead conn and keep failing with
// core.ErrNodeFailed; new offloads use the replacement.
func (h *Host) RecoverNode(n core.NodeID) error {
	c, err := h.conn(n)
	if err != nil {
		return err
	}
	c.dead = true
	if c.card.Process() != nil {
		_ = c.card.DestroyProcess(h.p)
	}
	_ = c.link.Release()
	nc, err := h.connect(c.card, int(n))
	if err != nil {
		return err
	}
	h.conns[int(n)-h.prm.NodeBase-1] = nc
	return nil
}

// Close implements core.Initiator: destroy the VE processes and release their
// communication areas.
func (h *Host) Close() error {
	var firstErr error
	for _, c := range h.conns {
		if err := c.proc.Destroy(h.p); err != nil && firstErr == nil {
			firstErr = err
		}
		if err := c.link.Release(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

var _ core.Initiator = (*Host)(nil)
