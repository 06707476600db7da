package dmab

import (
	"fmt"

	"hamoffload/internal/backend/slots"
	"hamoffload/internal/dma"
	"hamoffload/internal/ham"
	"hamoffload/internal/pcie"
	"hamoffload/internal/simtime"
	"hamoffload/internal/veos"
)

// LibraryName is the VE library with the DMA backend's kernels.
const LibraryName = "libham-offload-dmab.so"

// targetState is built by ham_dmab_init — the §IV-A memory setup of Fig. 7
// — and serves as the VE endpoint of the ring once ham_main starts.
type targetState struct {
	card         *veos.Card
	kctx         *veos.Ctx // set by ham_main
	lay          layout
	selfNode     int
	numNodes     int
	resultViaDMA bool

	shmVEHVA   uint64 // DMAATB mapping of the VH shared-memory segment
	stageAddr  uint64 // local HBM staging buffer (VEMVA)
	stageVEHVA uint64 // DMAATB mapping of the staging buffer
}

// states holds the target state of each VE process from ham_dmab_init until
// its ham_main returns. Keying by process keeps a dead process's exit from
// touching the state of its recovered successor on the same card.
var states = map[*veos.Process]*targetState{}

func init() {
	veos.RegisterLibrary(LibraryName, veos.Library{
		// ham_dmab_init performs the VE side of Fig. 7: attach the VH shm
		// segment by key, register it and a local staging buffer in the
		// DMAATB, making both addressable for user DMA and LHM/SHM.
		"ham_dmab_init": func(ctx *veos.Ctx, args []uint64) (uint64, error) {
			if len(args) != 7 {
				return 0, fmt.Errorf("dmab: ham_dmab_init wants 7 args, got %d", len(args))
			}
			card := ctx.Context.Process().Card()
			st := &targetState{
				card: card,
				lay: layout{
					nbuf:         int(args[1]),
					bufSize:      int(args[2]),
					resultInline: int(args[3]),
				},
				resultViaDMA: args[4] != 0,
				selfNode:     int(args[5]),
				numNodes:     int(args[6]),
			}
			seg, err := card.Host.ShmGet(int(args[0]))
			if err != nil {
				return 0, err
			}
			shmVEHVA, err := card.Mem.ATB().Register(card.Host.Mem, seg.Addr, seg.Size)
			if err != nil {
				return 0, err
			}
			ctx.P.Sleep(card.Timing.DMAATBRegister)
			stage, err := card.Mem.Alloc(int64(st.lay.bufSize))
			if err != nil {
				return 0, err
			}
			stageVEHVA, err := card.Mem.ATB().Register(card.Mem.HBM, stage, int64(st.lay.bufSize))
			if err != nil {
				return 0, err
			}
			ctx.P.Sleep(card.Timing.DMAATBRegister)
			st.shmVEHVA = uint64(shmVEHVA)
			st.stageAddr = uint64(stage)
			st.stageVEHVA = uint64(stageVEHVA)
			states[ctx.Context.Process()] = st
			return 0, nil
		},
		"ham_main": func(ctx *veos.Ctx, args []uint64) (uint64, error) {
			proc := ctx.Context.Process()
			st, ok := states[proc]
			if !ok {
				return 1, fmt.Errorf("dmab: ham_main before ham_dmab_init on VE %d", proc.Card().ID)
			}
			defer delete(states, proc)
			st.kctx = ctx
			return slots.Main(ctx, "dmab", st.selfNode, st.numNodes, st.lay.nbuf, st)
		},
	})
}

// LoadFlag implements slots.Endpoint: the VE polls the receive flag in VH
// memory with an LHM load.
func (st *targetState) LoadFlag(slot int) (uint64, error) {
	return st.kctx.Instr().LoadWord(st.kctx.P, memA(st.shmVEHVA+st.lay.recvFlagOff(slot)))
}

// MissCost implements slots.Endpoint: a missed poll also pays the LHM load.
func (st *targetState) MissCost() simtime.Duration {
	return st.card.Timing.LHMPerWord
}

// Fetch implements slots.Endpoint: the VE actively pulls its message into
// the local staging buffer via user DMA (pre-built descriptor hot path, not
// the ve_dma_post_wait API) — the cost the paper notes the VE pays before
// executing — then pays the fixed framework overhead (key translation,
// functor decode).
func (st *targetState) Fetch(slot, n int) ([]byte, error) {
	card := st.card
	if err := st.kctx.UserDMA().Post(st.kctx.P, dma.Raw, pcie.Down,
		memA(st.stageVEHVA), memA(st.shmVEHVA+st.lay.recvBufOff(slot)), int64(n)); err != nil {
		return nil, err
	}
	msg := make([]byte, n)
	if err := card.Mem.HBM.ReadAt(msg, memA(st.stageAddr)); err != nil {
		return nil, err
	}
	st.kctx.P.Sleep(card.Timing.HAMVEOverhead)
	return msg, nil
}

// Respond implements slots.Endpoint: it pushes the result into the VH send
// slot — inline payload via SHM word stores (the §V-B finding: SHM beats
// DMA up to 256 B), overflow via a user-DMA write, flag last.
func (st *targetState) Respond(slot int, seq uint32, resp []byte) error {
	card := st.card
	instr := st.kctx.Instr()
	udma := st.kctx.UserDMA()
	p := st.kctx.P
	lay := st.lay
	if len(resp) > lay.resultInline+lay.bufSize {
		resp = encodeOverflowError(len(resp))
	}
	inline := len(resp)
	if inline > lay.resultInline {
		inline = lay.resultInline
	}
	if inline > 0 {
		if st.resultViaDMA {
			// Ablation path: stage the inline part locally, DMA it out.
			if err := card.Mem.HBM.WriteAt(resp[:inline], memA(st.stageAddr)); err != nil {
				return err
			}
			if err := udma.Post(p, dma.Raw, pcie.Up,
				memA(st.shmVEHVA+lay.sendInlineOff(slot)), memA(st.stageVEHVA), int64(inline)); err != nil {
				return err
			}
		} else {
			if err := instr.StoreBytes(p, memA(st.shmVEHVA+lay.sendInlineOff(slot)), resp[:inline]); err != nil {
				return err
			}
		}
	}
	if len(resp) > inline {
		over := resp[inline:]
		if err := card.Mem.HBM.WriteAt(over, memA(st.stageAddr)); err != nil {
			return err
		}
		if err := udma.Post(p, dma.Raw, pcie.Up,
			memA(st.shmVEHVA+lay.overflowOff(slot)), memA(st.stageVEHVA), int64(len(over))); err != nil {
			return err
		}
	}
	return instr.StoreWord(p, memA(st.shmVEHVA+lay.sendFlagOff(slot)), slots.Encode(seq, len(resp)))
}

// encodeOverflowError builds a ham failure response for oversized results.
func encodeOverflowError(n int) []byte {
	return ham.EncodeFailure(fmt.Sprintf("dmab: result of %d bytes exceeds the send buffer", n))
}
