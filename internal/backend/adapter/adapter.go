// Package adapter bridges node memories to the runtime's LocalMemory
// interface: the simulated VH and VE memory systems the SX-Aurora backends
// share, and a locked heap for the backends that touch one heap from
// several goroutines.
package adapter

import (
	"sync"

	"hamoffload/internal/core"
	"hamoffload/internal/hostmem"
	"hamoffload/internal/mem"
	"hamoffload/internal/vemem"
)

// HostHeap exposes the simulated VH memory as a node-local heap.
type HostHeap struct {
	H *hostmem.Host
}

// Alloc implements core.LocalMemory.
func (m *HostHeap) Alloc(n int64) (uint64, error) {
	a, err := m.H.Alloc(n)
	return uint64(a), err
}

// Free implements core.LocalMemory.
func (m *HostHeap) Free(addr uint64) error { return m.H.Free(mem.Addr(addr)) }

// Read implements core.LocalMemory.
func (m *HostHeap) Read(addr uint64, p []byte) error { return m.H.Mem.ReadAt(p, mem.Addr(addr)) }

// Write implements core.LocalMemory.
func (m *HostHeap) Write(addr uint64, data []byte) error {
	return m.H.Mem.WriteAt(data, mem.Addr(addr))
}

// VEHeap exposes a VE's HBM as a node-local heap.
type VEHeap struct {
	VE *vemem.VE
}

// Alloc implements core.LocalMemory.
func (m *VEHeap) Alloc(n int64) (uint64, error) {
	a, err := m.VE.Alloc(n)
	return uint64(a), err
}

// Free implements core.LocalMemory.
func (m *VEHeap) Free(addr uint64) error { return m.VE.Free(mem.Addr(addr)) }

// Read implements core.LocalMemory.
func (m *VEHeap) Read(addr uint64, p []byte) error { return m.VE.HBM.ReadAt(p, mem.Addr(addr)) }

// Write implements core.LocalMemory.
func (m *VEHeap) Write(addr uint64, data []byte) error {
	return m.VE.HBM.WriteAt(data, mem.Addr(addr))
}

// LockedHeap makes a core.Heap safe for concurrent access, such as the
// loopback backend's host/target wiring or a TCP target's put/get and
// dispatch paths.
type LockedHeap struct {
	mu sync.Mutex
	H  *core.Heap
}

// Alloc implements core.LocalMemory.
func (l *LockedHeap) Alloc(n int64) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.H.Alloc(n)
}

// Free implements core.LocalMemory.
func (l *LockedHeap) Free(addr uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.H.Free(addr)
}

// Read implements core.LocalMemory.
func (l *LockedHeap) Read(addr uint64, p []byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.H.Read(addr, p)
}

// Write implements core.LocalMemory.
func (l *LockedHeap) Write(addr uint64, data []byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.H.Write(addr, data)
}

var (
	_ core.LocalMemory = (*HostHeap)(nil)
	_ core.LocalMemory = (*VEHeap)(nil)
	_ core.LocalMemory = (*LockedHeap)(nil)
)
