package mem

import "sync"

// poisonByte fills recycled pages before they re-enter circulation. Fault-in
// copies the template page over the whole buffer, so a poisoned byte leaking
// through to a fresh device means the sanitization contract broke — the
// recycling tests assert no device ever observes 0xA5 it didn't write.
const poisonByte = 0xA5

// PageArena recycles private COW pages between devices. A fleet runner owns
// one arena shared by all its workers: finished devices push their dirty
// pages back, and the next boot's write-faults pull from the free list
// instead of the Go allocator. Steady-state page traffic then costs zero
// allocations regardless of fleet size. The arena recycles the 2 KiB
// page-pointer tables COW buses privatize on their first fault the same way,
// and parks whole retired machines (a kernel's one allocation, opaque here)
// for the next boot.
type PageArena struct {
	mu   sync.Mutex
	free []*dataPage
	gets uint64
	puts uint64

	tables               []*[numPages]*dataPage
	tableGets, tablePuts uint64

	machines []any
}

// PutMachine parks a retired machine for TakeMachine to hand out again.
func (a *PageArena) PutMachine(m any) {
	a.mu.Lock()
	a.machines = append(a.machines, m)
	a.mu.Unlock()
}

// TakeMachine pops a parked machine, or returns nil when none is parked or
// a is nil.
func (a *PageArena) TakeMachine() any {
	if a == nil {
		return nil
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	n := len(a.machines)
	if n == 0 {
		return nil
	}
	m := a.machines[n-1]
	a.machines[n-1] = nil
	a.machines = a.machines[:n-1]
	return m
}

// NewPageArena returns an empty arena.
func NewPageArena() *PageArena { return &PageArena{} }

// get pops a recycled page, or returns nil when the free list is empty (the
// caller falls back to the allocator).
func (a *PageArena) get() *dataPage {
	a.mu.Lock()
	defer a.mu.Unlock()
	n := len(a.free)
	if n == 0 {
		return nil
	}
	pg := a.free[n-1]
	a.free[n-1] = nil
	a.free = a.free[:n-1]
	a.gets++
	return pg
}

// put poisons a retired page and returns it to the free list.
func (a *PageArena) put(pg *dataPage) {
	for i := range pg {
		pg[i] = poisonByte
	}
	a.mu.Lock()
	a.free = append(a.free, pg)
	a.puts++
	a.mu.Unlock()
	mPagesRecycled.Inc()
}

// getTable pops a recycled page table, or returns nil when none is parked.
// Its slots are stale: the caller overwrites all of them.
func (a *PageArena) getTable() *[numPages]*dataPage {
	a.mu.Lock()
	defer a.mu.Unlock()
	n := len(a.tables)
	if n == 0 {
		return nil
	}
	t := a.tables[n-1]
	a.tables[n-1] = nil
	a.tables = a.tables[:n-1]
	a.tableGets++
	return t
}

// putTable clears a retired page table, so a parked table pins no
// template, and returns it to the free list.
func (a *PageArena) putTable(t *[numPages]*dataPage) {
	*t = [numPages]*dataPage{}
	a.mu.Lock()
	a.tables = append(a.tables, t)
	a.tablePuts++
	a.mu.Unlock()
}

// FreePages reports how many recycled pages are currently parked in the
// arena.
func (a *PageArena) FreePages() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.free)
}

// Stats returns the cumulative numbers of pages handed out and pages
// returned since creation.
func (a *PageArena) Stats() (gets, puts uint64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.gets, a.puts
}
