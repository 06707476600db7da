// Package veob implements the paper's VEO-based communication protocol
// (§III-D, Fig. 5): a one-sided protocol coordinated by the Vector Host.
// Message and result buffers live in VE memory; the host writes offload
// messages and notification flags with veo_write_mem and polls result flags
// with veo_read_mem, so every protocol step rides on VEOS' privileged DMA
// with its high per-operation latency. The VE side finds messages in its
// local memory, executes them, and leaves results in its local send buffers.
//
// One optimisation over the figure's literal four-transfer sequence is kept
// from the paper's "piggybacking" remark: each result flag is adjacent to
// its result buffer, so the host fetches flag and (small) result in a single
// veo_read_mem. Results larger than the slot's inline capacity cost one
// extra read.
package veob

import (
	"hamoffload/internal/backend/slots"
	"hamoffload/internal/mem"
	"hamoffload/internal/simtime"
	"hamoffload/internal/trace"
	"hamoffload/internal/veo"
	"hamoffload/internal/veos"
)

// Options configures the protocol.
type Options struct {
	// NumBuffers is the number of message slots per direction (default 8).
	NumBuffers int
	// BufSize is the capacity of one message buffer (default 4 KiB).
	BufSize int
	// ResultInline is the result payload fetched together with the flag in
	// one read (default 248, making flag+inline one 256-byte slot).
	ResultInline int
	// OffloadTimeout bounds how long one offload may stay in flight before
	// Wait gives up with core.ErrOffloadTimeout, measured on the simulated
	// clock from the start of the wait. Zero waits forever (the pre-fault-
	// tolerance behaviour).
	OffloadTimeout simtime.Duration
}

// layout describes the communication area in VE memory.
type layout struct {
	nbuf         int
	bufSize      int
	resultInline int

	base      uint64 // single veo_alloc_mem block
	recvFlags uint64 // nbuf × 8
	recvBufs  uint64 // nbuf × bufSize
	sendSlots uint64 // nbuf × (8 + resultInline): flag adjacent to inline result
	sendExtra uint64 // nbuf × bufSize overflow area for large results
}

func makeLayout(o Options, base uint64) layout {
	l := layout{nbuf: o.NumBuffers, bufSize: o.BufSize, resultInline: o.ResultInline, base: base}
	off := base
	l.recvFlags = off
	off += uint64(l.nbuf * slots.FlagBits)
	l.recvBufs = off
	off += uint64(l.nbuf * l.bufSize)
	l.sendSlots = off
	off += uint64(l.nbuf * (slots.FlagBits + l.resultInline))
	l.sendExtra = off
	return l
}

func (l layout) totalSize() int64 {
	return int64(l.nbuf*slots.FlagBits + l.nbuf*l.bufSize +
		l.nbuf*(slots.FlagBits+l.resultInline) + l.nbuf*l.bufSize)
}

func (l layout) recvFlagAddr(slot int) uint64 { return l.recvFlags + uint64(slot*slots.FlagBits) }
func (l layout) recvBufAddr(slot int) uint64  { return l.recvBufs + uint64(slot*l.bufSize) }
func (l layout) sendSlotAddr(slot int) uint64 {
	return l.sendSlots + uint64(slot*(slots.FlagBits+l.resultInline))
}
func (l layout) sendExtraAddr(slot int) uint64 { return l.sendExtra + uint64(slot*l.bufSize) }

// Host is the initiator-side backend running on the Vector Host: the
// shared slot ring over this package's link.
type Host = slots.Host

// Connect builds the complete Fig. 4 runtime setup for the given VE cards:
// it creates a VE process on each card, loads the application library,
// allocates the communication area in VE memory and communicates its
// address through the HAM-Offload C-API kernel ham_comm_init, and starts
// ham_main. The returned backend serves node 0; cards become nodes
// 1..len(cards).
func Connect(p *simtime.Proc, cards []*veos.Card, opts Options) (*Host, error) {
	opts.NumBuffers, opts.BufSize, opts.ResultInline = slots.Geometry(opts.NumBuffers, opts.BufSize, opts.ResultInline)
	return slots.Connect(p, cards, slots.Params{
		Name:           "veob",
		Library:        LibraryName,
		NumBuffers:     opts.NumBuffers,
		BufSize:        opts.BufSize,
		OffloadTimeout: opts.OffloadTimeout,
		Attach: func(p *simtime.Proc, nt *trace.NodeTracer, proc *veo.Proc) (slots.Link, error) {
			base, err := proc.AllocMem(p, makeLayout(opts, 0).totalSize())
			if err != nil {
				return nil, err
			}
			card := proc.Card()
			l := &link{p: p, nt: nt, proc: proc, card: card, lay: makeLayout(opts, base)}
			bounce, err := card.Host.Alloc(int64(opts.BufSize) + 16)
			if err != nil {
				_ = card.Mem.Free(mem.Addr(base))
				return nil, err
			}
			l.bounce = uint64(bounce)
			return l, nil
		},
	})
}

// link is the host side of Fig. 5 for one VE: every protocol step is a
// veo_write_mem or veo_read_mem through a persistent host bounce buffer.
type link struct {
	p      *simtime.Proc
	nt     *trace.NodeTracer
	proc   *veo.Proc
	card   *veos.Card
	lay    layout
	bounce uint64 // host-side bounce buffer for messages, flags and results
}

// ConnectKernel implements slots.Link: ham_comm_init receives the address
// of the host-managed communication area (Fig. 4's HAM-Offload C-API).
func (l *link) ConnectKernel() (string, []uint64) {
	return "ham_comm_init", []uint64{l.lay.base, uint64(l.lay.nbuf), uint64(l.lay.bufSize), uint64(l.lay.resultInline)}
}

// Post implements slots.Link: write the message into the VE receive buffer,
// then set its notification flag — two veo_write_mem operations, exactly
// the Fig. 5 sequence.
func (l *link) Post(slot int, seq uint32, mid int64, msg []byte) error {
	host := l.card.Host.Mem
	if err := host.WriteAt(msg, mem.Addr(l.bounce)); err != nil {
		return err
	}
	if err := l.proc.WriteMem(l.p, l.lay.recvBufAddr(slot), l.bounce, int64(len(msg))); err != nil {
		return err
	}
	if err := host.WriteUint64(mem.Addr(l.bounce), slots.Encode(seq, len(msg))); err != nil {
		return err
	}
	endFlag := l.nt.Begin(trace.PhaseFlagWrite, "veob-flag-write", mid)
	err := l.proc.WriteMem(l.p, l.lay.recvFlagAddr(slot), l.bounce, slots.FlagBits)
	endFlag()
	return err
}

// Probe implements slots.Link: one veo_read_mem fetches the result flag
// together with the adjacent inline result; a larger result costs a second
// read of the overflow area.
func (l *link) Probe(slot int, seq uint32) ([]byte, bool, error) {
	host := l.card.Host.Mem
	readLen := int64(slots.FlagBits + l.lay.resultInline)
	if err := l.proc.ReadMem(l.p, l.bounce, l.lay.sendSlotAddr(slot), readLen); err != nil {
		return nil, false, err
	}
	flag, err := host.ReadUint64(mem.Addr(l.bounce))
	if err != nil {
		return nil, false, err
	}
	n, ok := slots.Decode(flag, seq)
	if !ok {
		return nil, false, nil
	}
	resp := make([]byte, n)
	inline := n
	if inline > l.lay.resultInline {
		inline = l.lay.resultInline
	}
	if err := host.ReadAt(resp[:inline], mem.Addr(l.bounce+slots.FlagBits)); err != nil {
		return nil, false, err
	}
	if n > inline {
		if err := l.proc.ReadMem(l.p, l.bounce, l.lay.sendExtraAddr(slot), int64(n-inline)); err != nil {
			return nil, false, err
		}
		if err := host.ReadAt(resp[inline:], mem.Addr(l.bounce)); err != nil {
			return nil, false, err
		}
	}
	return resp, true, nil
}

// PollGap implements slots.Link: each probe is a full veo_read_mem whose
// privileged-DMA latency is the poll interval, so a miss costs nothing more.
func (l *link) PollGap() simtime.Duration { return 0 }

// Release implements slots.Link: the VE-side area died with the process;
// release its simulated backing store along with the host bounce buffer.
func (l *link) Release() error {
	err := l.card.Host.Free(mem.Addr(l.bounce))
	if ferr := l.card.Mem.Free(mem.Addr(l.lay.base)); err == nil {
		err = ferr
	}
	return err
}
