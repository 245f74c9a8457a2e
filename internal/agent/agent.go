// Package agent implements the control-plane agent of §3.2: "We rely
// on a control-plane agent to partition switch SRAM and isolate
// concurrently executing network tasks.  For instance, if end-hosts
// implement both RCP and ndb, the agent would allocate a
// non-overlapping set of SRAM addresses to RCP and ndb."
//
// The agent manages a fleet of switches: it allocates congruent SRAM
// regions for each task on every switch (so one compiled TPP works
// network-wide), hands out per-port scratch words, seeds initial
// values, and enforces the §4 admission policy by marking edge ports
// untrusted.
package agent

import (
	"fmt"

	"repro/internal/asic"
	"repro/internal/mem"
)

// Agent is a network-wide control-plane coordinator.
type Agent struct {
	switches []*asic.Switch
	tasks    map[string]Task
	// scratchOwner maps per-port scratch word index -> task name.
	scratchOwner map[int]string
}

// Task records one network task's allocation.
type Task struct {
	Name string
	// Region is the task's SRAM region; identical Base/Words on every
	// switch, so a single TPP addresses it network-wide.
	Region mem.Region
	// ScratchWords lists the per-port scratch word indexes assigned
	// to the task (offsets from mem.PortScratchBase).
	ScratchWords []int
}

// New builds an agent managing the given switches.
func New(switches ...*asic.Switch) *Agent {
	return &Agent{
		switches:     switches,
		tasks:        make(map[string]Task),
		scratchOwner: make(map[int]string),
	}
}

// Switches returns the managed fleet.
func (a *Agent) Switches() []*asic.Switch { return a.switches }

// Register allocates sramWords of SRAM and scratchWords per-port
// scratch slots for a task, congruently across every switch.  The
// returned Task carries the addresses the task's TPP compiler should
// use.
func (a *Agent) Register(name string, sramWords, scratchWords int) (Task, error) {
	if _, ok := a.tasks[name]; ok {
		return Task{}, fmt.Errorf("agent: task %q already registered", name)
	}
	if scratchWords < 0 || scratchWords > mem.PortScratchWords {
		return Task{}, fmt.Errorf("agent: %d scratch words unavailable", scratchWords)
	}

	var region mem.Region
	if sramWords > 0 {
		// Allocate on every switch; congruence holds because every
		// switch's allocator sees the same request sequence.  If any
		// switch disagrees (e.g. pre-existing local allocations),
		// fail and roll back.
		for i, sw := range a.switches {
			r, err := sw.Allocator().Alloc(name, sramWords)
			// A failed Alloc left switch i untouched (it may hold a
			// foreign region under this name); only a diverging one
			// succeeded there and needs undoing too.
			rollback := a.switches[:i]
			if err == nil && i > 0 && r != region {
				err = fmt.Errorf("agent: switch %d region %+v diverges from %+v", sw.ID(), r, region)
				rollback = a.switches[:i+1]
			}
			if err != nil {
				for _, prev := range rollback {
					prev.Allocator().Free(name) //nolint:errcheck // rollback
				}
				return Task{}, err
			}
			region = r
		}
	}

	var scratch []int
	for w := 0; w < mem.PortScratchWords && len(scratch) < scratchWords; w++ {
		if _, taken := a.scratchOwner[w]; !taken {
			scratch = append(scratch, w)
		}
	}
	if len(scratch) < scratchWords {
		if sramWords > 0 {
			for _, sw := range a.switches {
				sw.Allocator().Free(name) //nolint:errcheck // rollback
			}
		}
		return Task{}, fmt.Errorf("agent: only %d of %d scratch words free", len(scratch), scratchWords)
	}
	for _, w := range scratch {
		a.scratchOwner[w] = name
	}

	t := Task{Name: name, Region: region, ScratchWords: scratch}
	a.tasks[name] = t
	return t, nil
}

// Unregister releases everything a task holds.
func (a *Agent) Unregister(name string) error {
	t, ok := a.tasks[name]
	if !ok {
		return fmt.Errorf("agent: unknown task %q", name)
	}
	if t.Region.Words > 0 {
		for _, sw := range a.switches {
			sw.Allocator().Free(name) //nolint:errcheck // best-effort release
		}
	}
	for _, w := range t.ScratchWords {
		delete(a.scratchOwner, w)
	}
	delete(a.tasks, name)
	return nil
}

// Lookup returns a registered task.
func (a *Agent) Lookup(name string) (Task, bool) {
	t, ok := a.tasks[name]
	return t, ok
}

// SeedScratch writes v into scratch word (offset from the task's first
// assigned slot) on every wired port of every switch — e.g. the RCP
// initialization "a control plane program initializes each link's fair
// share rate to its capacity" uses SeedScratchFunc instead.
func (a *Agent) SeedScratch(task Task, slot int, v uint32) error {
	if slot < 0 || slot >= len(task.ScratchWords) {
		return fmt.Errorf("agent: task %q has no scratch slot %d", task.Name, slot)
	}
	w := task.ScratchWords[slot]
	for _, sw := range a.switches {
		for p := 0; p < sw.Ports(); p++ {
			if sw.Port(p).Wired() {
				sw.Port(p).SetScratch(w, v)
			}
		}
	}
	return nil
}

// SeedScratchFunc initializes a scratch slot per port with a computed
// value (e.g. the port's link capacity).
func (a *Agent) SeedScratchFunc(task Task, slot int, fn func(sw *asic.Switch, port int) uint32) error {
	if slot < 0 || slot >= len(task.ScratchWords) {
		return fmt.Errorf("agent: task %q has no scratch slot %d", task.Name, slot)
	}
	w := task.ScratchWords[slot]
	for _, sw := range a.switches {
		for p := 0; p < sw.Ports(); p++ {
			if sw.Port(p).Wired() {
				sw.Port(p).SetScratch(w, fn(sw, p))
			}
		}
	}
	return nil
}

// ScratchAddr returns the context-relative virtual address of a task's
// scratch slot, for the task's TPP compiler.
func (t Task) ScratchAddr(slot int) (mem.Addr, error) {
	if slot < 0 || slot >= len(t.ScratchWords) {
		return 0, fmt.Errorf("agent: task %q has no scratch slot %d", t.Name, slot)
	}
	return mem.PortBase + mem.PortScratchBase + mem.Addr(t.ScratchWords[slot]), nil
}

// SecureEdge marks the given (switch, port) pairs untrusted, so TPPs
// arriving there are stripped (§4): "the ingress switches at the
// network edge ... can strip TPPs injected by VMs, or those TPPs
// received from the Internet".
func SecureEdge(ports ...EdgePort) {
	for _, ep := range ports {
		ep.Switch.Port(ep.Port).SetTrusted(false)
	}
}

// EdgePort names one untrusted attachment point.
type EdgePort struct {
	Switch *asic.Switch
	Port   int
}
