package mem

import (
	"cmp"
	"fmt"
	"slices"
)

// Region is a contiguous SRAM allocation.
type Region struct {
	Base  Addr // first word address (within the SRAM namespace)
	Words int
}

// End returns one past the last address of the region.
func (r Region) End() Addr { return r.Base + Addr(r.Words) }

// Contains reports whether address a falls inside the region.
//
//api:oracle the bounds the guard's partition property test holds its translation to
func (r Region) Contains(a Addr) bool { return a >= r.Base && a < r.End() }

// Owner identifies the holder of a region.  There are two classes: an
// operator network task, named by Task with Tenant zero, and a guard
// tenant, identified by a non-zero Tenant (a guard.TenantID; tenant 0
// is the operator, which holds no partition of its own) with Task
// empty.
type Owner struct {
	Task   string
	Tenant uint8
}

func (o Owner) String() string {
	if o.Tenant != 0 {
		return fmt.Sprintf("tenant %d", o.Tenant)
	}
	return fmt.Sprintf("task %q", o.Task)
}

// Held is one live region together with its owner.
type Held struct {
	Owner  Owner
	Region Region
}

// Allocator is one switch's half of the §3.2 control-plane agent that
// partitions switch SRAM and isolates concurrently executing network
// tasks: "if end-hosts implement both RCP and ndb, the agent would
// allocate a non-overlapping set of SRAM addresses to RCP and ndb" (the
// fabric controller is the other half, placing tasks on every switch
// at one base).  It is the only carver of the
// scratch bank: operator task regions (Alloc/Free) and tenant
// partitions (Grant/Revoke, driven by guard.Table) live in one map
// keyed by Owner and are placed by one first-fit search, so two live
// regions of either class cannot overlap.
//
// The classes differ in lifetime only: task regions are switch soft
// state and Reset (the crash-restart path) releases them; tenant
// partitions are config, like the TCAM, and survive it.
//
// Allocator is not safe for concurrent use; the control plane serializes
// allocation requests.
type Allocator struct {
	regions map[Owner]Region
}

// NewAllocator builds an allocator over the switch's SRAM bank.
func NewAllocator() *Allocator {
	return &Allocator{regions: make(map[Owner]Region)}
}

// Alloc reserves words of SRAM for the named task using first-fit over
// the gaps between live regions.  Allocating again under the same name
// fails; tasks hold exactly one region.
func (al *Allocator) Alloc(task string, words int) (Region, error) {
	return al.carve(Owner{Task: task}, words)
}

// Grant reserves words of SRAM as tenant's partition, placed exactly
// as Alloc places a task region.  A tenant holds one partition; the
// operator (tenant 0) holds none.
func (al *Allocator) Grant(tenant uint8, words int) (Region, error) {
	if tenant == 0 {
		return Region{}, fmt.Errorf("mem: the operator tenant holds no partition")
	}
	return al.carve(Owner{Tenant: tenant}, words)
}

func (al *Allocator) carve(o Owner, words int) (Region, error) {
	if words <= 0 {
		return Region{}, fmt.Errorf("mem: %v requested %d words", o, words)
	}
	if _, ok := al.regions[o]; ok {
		return Region{}, fmt.Errorf("mem: %v already holds a region", o)
	}
	taken := make([]Region, 0, len(al.regions))
	for _, r := range al.regions { //lint:allow maporder (sorted below)
		taken = append(taken, r)
	}
	slices.SortFunc(taken, func(a, b Region) int { return cmp.Compare(a.Base, b.Base) })
	cursor := SRAMBase
	for _, r := range taken {
		if int(r.Base-cursor) >= words {
			break
		}
		if r.End() > cursor {
			cursor = r.End()
		}
	}
	if int(SRAMBase)+SRAMWords-int(cursor) < words {
		return Region{}, fmt.Errorf("mem: SRAM exhausted: %v wants %d words", o, words)
	}
	reg := Region{Base: cursor, Words: words}
	al.regions[o] = reg
	return reg, nil
}

// Free releases the named task's region.
func (al *Allocator) Free(task string) error { return al.release(Owner{Task: task}) }

// Revoke releases tenant's partition.
func (al *Allocator) Revoke(tenant uint8) error { return al.release(Owner{Tenant: tenant}) }

func (al *Allocator) release(o Owner) error {
	if _, ok := al.regions[o]; !ok {
		return fmt.Errorf("mem: %v holds no region", o)
	}
	delete(al.regions, o)
	return nil
}

// Reset releases every task region at once: they are switch soft
// state, so a crash-restart wipes them along with the SRAM bank, and
// control-plane agents re-allocate after the switch boots.  Tenant
// partitions stay in place, so those re-allocations route around them.
func (al *Allocator) Reset() {
	for o := range al.regions { //lint:allow maporder (deletes a class, order-free)
		if o.Tenant == 0 {
			delete(al.regions, o)
		}
	}
}

// Lookup returns the region held by task.
func (al *Allocator) Lookup(task string) (Region, bool) {
	r, ok := al.regions[Owner{Task: task}]
	return r, ok
}

// Held returns every live region with its owner: task regions sorted
// by name, then tenant partitions sorted by id.
func (al *Allocator) Held() []Held {
	out := make([]Held, 0, len(al.regions))
	for o, r := range al.regions { //lint:allow maporder (sorted before return)
		out = append(out, Held{Owner: o, Region: r})
	}
	slices.SortFunc(out, func(a, b Held) int {
		return cmp.Or(cmp.Compare(a.Owner.Tenant, b.Owner.Tenant), cmp.Compare(a.Owner.Task, b.Owner.Task))
	})
	return out
}
