package veob

import (
	"fmt"

	"hamoffload/internal/backend/slots"
	"hamoffload/internal/ham"
	"hamoffload/internal/mem"
	"hamoffload/internal/simtime"
	"hamoffload/internal/veos"
)

// LibraryName is the VE library containing the backend's C-API kernels and
// ham_main — the build product of Fig. 4's target-side compilation.
const LibraryName = "libham-offload-veob.so"

// targetState carries the communication-area description from ham_comm_init
// to ham_main within one VE process, and serves as the VE endpoint of the
// ring: the VE finds messages in its local memory and leaves results in its
// local send slots for the host to fetch.
type targetState struct {
	card     *veos.Card
	kctx     *veos.Ctx // set by ham_main
	lay      layout
	selfNode int
	numNodes int
}

// states holds the target state of each VE process from ham_comm_init until
// its ham_main returns. Keying by process keeps a dead process's exit from
// touching the state of its recovered successor on the same card. The
// simulation is single-threaded per engine, so a plain map suffices.
var states = map[*veos.Process]*targetState{}

func init() {
	veos.RegisterLibrary(LibraryName, veos.Library{
		// ham_comm_init receives the addresses of the host-managed
		// communication data structures (Fig. 4's HAM-Offload C-API).
		"ham_comm_init": func(ctx *veos.Ctx, args []uint64) (uint64, error) {
			if len(args) != 6 {
				return 0, fmt.Errorf("veob: ham_comm_init wants 6 args, got %d", len(args))
			}
			card := ctx.Context.Process().Card()
			st := &targetState{
				card:     card,
				selfNode: int(args[4]),
				numNodes: int(args[5]),
			}
			st.lay = makeLayout(Options{
				NumBuffers:   int(args[1]),
				BufSize:      int(args[2]),
				ResultInline: int(args[3]),
			}, args[0])
			states[ctx.Context.Process()] = st
			return 0, nil
		},
		// ham_main runs the HAM-Offload runtime's message-processing loop —
		// the renamed main() of the target binary (§III-C).
		"ham_main": func(ctx *veos.Ctx, args []uint64) (uint64, error) {
			proc := ctx.Context.Process()
			st, ok := states[proc]
			if !ok {
				return 1, fmt.Errorf("veob: ham_main before ham_comm_init on VE %d", proc.Card().ID)
			}
			defer delete(states, proc)
			st.kctx = ctx
			return slots.Main(ctx, "veob", st.selfNode, st.numNodes, st.lay.nbuf, st)
		},
	})
}

// LoadFlag implements slots.Endpoint: the receive flag is a word in local
// memory.
func (st *targetState) LoadFlag(slot int) (uint64, error) {
	return st.card.Mem.HBM.ReadUint64(mem.Addr(st.lay.recvFlagAddr(slot)))
}

// MissCost implements slots.Endpoint: a local flag read costs nothing
// beyond the poll interval.
func (st *targetState) MissCost() simtime.Duration { return 0 }

// Fetch implements slots.Endpoint: copy the message out of the local
// receive buffer and pay the fixed VE-side framework overhead.
func (st *targetState) Fetch(slot, n int) ([]byte, error) {
	msg := make([]byte, n)
	if err := st.card.Mem.HBM.ReadAt(msg, mem.Addr(st.lay.recvBufAddr(slot))); err != nil {
		return nil, err
	}
	tm := st.card.Timing
	st.kctx.P.Sleep(simtime.BytesOver(int64(n), tm.VEMemCopyRate) + tm.HAMVEOverhead)
	return msg, nil
}

// Respond implements slots.Endpoint: it writes the result message into the
// send slot paired with the receive slot — inline payload adjacent to the
// flag, overflow into the extra area, flag written last (the §III-D
// ordering).
func (st *targetState) Respond(slot int, seq uint32, resp []byte) error {
	hbm := st.card.Mem.HBM
	lay := st.lay
	if len(resp) > lay.bufSize+lay.resultInline {
		resp = overflowError(len(resp))
	}
	inline := len(resp)
	if inline > lay.resultInline {
		inline = lay.resultInline
	}
	if err := hbm.WriteAt(resp[:inline], mem.Addr(lay.sendSlotAddr(slot)+slots.FlagBits)); err != nil {
		return err
	}
	if len(resp) > inline {
		if err := hbm.WriteAt(resp[inline:], mem.Addr(lay.sendExtraAddr(slot))); err != nil {
			return err
		}
	}
	st.kctx.P.Sleep(simtime.BytesOver(int64(len(resp)), st.card.Timing.VEMemCopyRate))
	return hbm.WriteUint64(mem.Addr(lay.sendSlotAddr(slot)), slots.Encode(seq, len(resp)))
}

// overflowError produces a failure response when a result exceeds the
// protocol's buffer capacity.
func overflowError(n int) []byte {
	return ham.EncodeFailure(fmt.Sprintf("veob: result of %d bytes exceeds the send buffer", n))
}
