// Package slots is the slot-ring protocol shared by the two SX-Aurora
// protocols (Fig. 5 VEO, Fig. 8 DMA): a one-sided ring of message slots per
// VE, each published by an adjacent 64-bit notification flag. The protocols
// differ only in where the buffers live and which engine moves the bytes,
// so the ring itself lives here — the host side (Host: slot cursor,
// sequence numbers, drain-on-reuse, Wait/Poll with OffloadTimeout, the
// dead-node rule, Put/Get over VEO, recovery) and the VE side (Target: the
// serve loop with poll backoff and bounded result-push retry). Each
// protocol plugs in a Link (host) and an Endpoint (VE) that move the bytes.
//
// A flag value packs a per-slot sequence number with the message length, so
// neither side ever needs to reset a flag it cannot write cheaply — the
// reader simply waits for the sequence number it expects (the paper's
// "invalid value to an index" transition, §III-D, hardened for slot reuse).
package slots

// FlagBits is the width of one notification flag in bytes.
const FlagBits = 8

// Encode packs a sequence number and payload length into a flag word.
// Length is offset by one so that a zero word (fresh memory) is never a
// valid flag.
func Encode(seq uint32, length int) uint64 {
	return uint64(seq)<<24 | uint64(length+1)
}

// Decode splits a flag word; ok reports whether it carries the expected
// sequence number and a valid length.
func Decode(flag uint64, wantSeq uint32) (length int, ok bool) {
	if flag == 0 {
		return 0, false
	}
	if uint32(flag>>24) != wantSeq {
		return 0, false
	}
	l := int(flag&0xffffff) - 1
	if l < 0 {
		return 0, false
	}
	return l, true
}

// MaxLen is the largest payload length a flag can carry.
const MaxLen = 1<<24 - 2
