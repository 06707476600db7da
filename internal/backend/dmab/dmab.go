// Package dmab implements the paper's DMA-based communication protocol
// (§IV, Fig. 8): a one-sided protocol with all communication buffers in
// Vector Host memory, inside a SystemV shared-memory segment registered in
// the VE's DMAATB (Fig. 7). The VE initiates every transfer: it polls the
// receive flags with LHM instructions, fetches messages with user DMA, and
// pushes result messages and flags back with SHM stores. All host-side
// protocol steps become local memory accesses, which is what cuts the
// empty-offload cost from ~430 µs (VEO protocol) to ~6 µs.
//
// Application start, initialisation and bulk data exchange still go through
// the VEO API, exactly as in the paper.
package dmab

import (
	"fmt"

	"hamoffload/internal/backend/slots"
	"hamoffload/internal/hostmem"
	"hamoffload/internal/mem"
	"hamoffload/internal/simtime"
	"hamoffload/internal/topology"
	"hamoffload/internal/trace"
	"hamoffload/internal/veo"
	"hamoffload/internal/veos"
)

func memA(a uint64) mem.Addr { return mem.Addr(a) }

// Options configures the protocol.
type Options struct {
	// NumBuffers is the number of message slots per direction (default 8).
	NumBuffers int
	// BufSize is the capacity of one message buffer (default 4 KiB).
	BufSize int
	// ResultInline is the result payload the VE pushes via SHM word stores;
	// larger results overflow through a user-DMA write (default 248).
	ResultInline int
	// ResultViaDMA returns even small results through a user-DMA write
	// instead of SHM stores — slower for small messages per §V-B, kept as
	// an ablation knob.
	ResultViaDMA bool
	// NodeBase offsets the target node ids: the cards become nodes
	// NodeBase+1 .. NodeBase+len(cards). Zero for a standalone machine; the
	// cluster backend assigns global ranks through it.
	NodeBase int
	// TotalNodes overrides the application's node count (default
	// len(cards)+1); cluster applications span more nodes than one machine.
	TotalNodes int
	// OffloadTimeout bounds how long one offload may stay in flight before
	// Wait gives up with core.ErrOffloadTimeout, measured on the simulated
	// clock from the start of the wait. Zero waits forever.
	OffloadTimeout simtime.Duration
}

// layout describes the communication area inside the VH shared-memory
// segment. Offsets are relative to the segment base.
type layout struct {
	nbuf         int
	bufSize      int
	resultInline int
}

func (l layout) recvFlagOff(slot int) uint64 {
	return uint64(slot * (slots.FlagBits + l.bufSize))
}
func (l layout) recvBufOff(slot int) uint64 {
	return l.recvFlagOff(slot) + slots.FlagBits
}
func (l layout) sendBase() uint64 {
	return uint64(l.nbuf * (slots.FlagBits + l.bufSize))
}
func (l layout) sendFlagOff(slot int) uint64 {
	return l.sendBase() + uint64(slot*(slots.FlagBits+l.resultInline))
}
func (l layout) sendInlineOff(slot int) uint64 {
	return l.sendFlagOff(slot) + slots.FlagBits
}
func (l layout) overflowBase() uint64 {
	return l.sendBase() + uint64(l.nbuf*(slots.FlagBits+l.resultInline))
}
func (l layout) overflowOff(slot int) uint64 {
	return l.overflowBase() + uint64(slot*l.bufSize)
}
func (l layout) totalSize() int64 {
	return int64(l.overflowBase()) + int64(l.nbuf*l.bufSize)
}

// Host is the initiator-side backend on the Vector Host: the shared slot
// ring over this package's link.
type Host = slots.Host

// Connect performs the full §IV-A setup for each card: VE process creation
// and library load via VEO, SysV shared-memory creation on the VH, DMAATB
// registration on the VE (through the ham_dmab_init kernel), and the
// asynchronous start of ham_main.
func Connect(p *simtime.Proc, cards []*veos.Card, opts Options) (*Host, error) {
	opts.NumBuffers, opts.BufSize, opts.ResultInline = slots.Geometry(opts.NumBuffers, opts.BufSize, opts.ResultInline)
	return slots.Connect(p, cards, slots.Params{
		Name:           "dmab",
		Library:        LibraryName,
		NumBuffers:     opts.NumBuffers,
		BufSize:        opts.BufSize,
		NodeBase:       opts.NodeBase,
		TotalNodes:     opts.TotalNodes,
		OffloadTimeout: opts.OffloadTimeout,
		Attach: func(p *simtime.Proc, nt *trace.NodeTracer, proc *veo.Proc) (slots.Link, error) {
			lay := layout{nbuf: opts.NumBuffers, bufSize: opts.BufSize, resultInline: opts.ResultInline}
			card := proc.Card()
			seg, err := card.Host.ShmCreate(lay.totalSize())
			if err != nil {
				return nil, fmt.Errorf("dmab: creating shm segment: %w", err)
			}
			return &link{p: p, nt: nt, host: card.Host, timing: card.Timing, seg: seg, lay: lay, viaDMA: opts.ResultViaDMA}, nil
		},
	})
}

// link is the host side of Fig. 8 for one VE: both the message write and
// the flag set are local VH memory stores, and results arrive in local
// memory too.
type link struct {
	p      *simtime.Proc
	nt     *trace.NodeTracer
	host   *hostmem.Host
	timing topology.Timing
	seg    *hostmem.ShmSegment
	lay    layout
	viaDMA bool
}

// ConnectKernel implements slots.Link: ham_dmab_init attaches the segment
// by key and registers it in the VE's DMAATB.
func (l *link) ConnectKernel() (string, []uint64) {
	viaDMA := uint64(0)
	if l.viaDMA {
		viaDMA = 1
	}
	return "ham_dmab_init", []uint64{uint64(l.seg.Key), uint64(l.lay.nbuf), uint64(l.lay.bufSize),
		uint64(l.lay.resultInline), viaDMA}
}

// Post implements slots.Link: message, then flag, into VH memory.
func (l *link) Post(slot int, seq uint32, mid int64, msg []byte) error {
	base := uint64(l.seg.Addr)
	if err := l.host.Mem.WriteAt(msg, memA(base+l.lay.recvBufOff(slot))); err != nil {
		return err
	}
	l.p.Sleep(simtime.BytesOver(int64(len(msg)), l.timing.HostMemCopyRate))
	endFlag := l.nt.Begin(trace.PhaseFlagWrite, "dmab-flag-write", mid)
	err := l.host.Mem.WriteUint64(memA(base+l.lay.recvFlagOff(slot)), slots.Encode(seq, len(msg)))
	endFlag()
	return err
}

// Probe implements slots.Link: one local flag check, then the inline and
// overflow result reads on a hit.
func (l *link) Probe(slot int, seq uint32) ([]byte, bool, error) {
	base := uint64(l.seg.Addr)
	flag, err := l.host.Mem.ReadUint64(memA(base + l.lay.sendFlagOff(slot)))
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
	if err := l.host.Mem.ReadAt(resp[:inline], memA(base+l.lay.sendInlineOff(slot))); err != nil {
		return nil, false, err
	}
	if n > inline {
		if err := l.host.Mem.ReadAt(resp[inline:], memA(base+l.lay.overflowOff(slot))); err != nil {
			return nil, false, err
		}
	}
	return resp, true, nil
}

// PollGap implements slots.Link: a local flag check never blocks, so each
// miss costs one host poll interval.
func (l *link) PollGap() simtime.Duration { return l.timing.HAMHostPollInterval }

// Release implements slots.Link: remove the shared-memory segment.
func (l *link) Release() error { return l.host.ShmRemove(l.seg.Key) }
