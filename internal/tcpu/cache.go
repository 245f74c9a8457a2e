package tcpu

import "repro/internal/core"

// MaxCachedInstructions bounds the program length a Cache will compile
// and key on; longer programs (beyond anything a per-packet device
// limit admits) are validated afresh by Config.Exec.  16 covers every
// device configuration the experiments use with room to spare.
const MaxCachedInstructions = 16

// DefaultCacheCapacity is the number of distinct program shapes a
// Cache retains; datacenter workloads run a handful of programs across
// millions of flows, so a small LRU captures effectively all traffic.
const DefaultCacheCapacity = 64

// cacheKey identifies a compilation: the instruction wire words plus
// every Config input Compile bakes into the Program.  Keying on the
// baked config means a device whose limits change (or two devices
// sharing a cache) can never execute under a verdict reached under
// different rules.
type cacheKey struct {
	n       uint8
	mode    core.AddrMode
	version uint8
	maxIns  int
	ins     [MaxCachedInstructions]uint32
}

type centry struct {
	key        cacheKey
	prog       *Program
	prev, next *centry // LRU list, head = most recent
}

// Cache is an LRU of compiled programs keyed by instruction wire bytes
// and device configuration.  It is used at the NIC (compile once per
// injected program) and at switch ingress (repeated flows never
// re-validate their instruction section).  Like the rest of the
// simulator dataplane it is single-threaded; lookups on the hit path do
// not allocate.
type Cache struct {
	cfg        Config
	capacity   int
	m          map[cacheKey]*centry
	head, tail *centry
	hits       uint64
	misses     uint64
	// One-entry front cache: flows repeat the same program back to
	// back, and a struct compare is cheaper than a map hash per packet.
	lastKey  cacheKey
	lastProg *Program
}

// NewCache builds a compiled-program cache for a device with config c.
// capacity <= 0 selects DefaultCacheCapacity.  The map is not presized:
// it grows with the programs the device actually sees, which for most
// devices is a handful, not capacity.
func NewCache(c Config, capacity int) *Cache {
	if capacity <= 0 {
		capacity = DefaultCacheCapacity
	}
	return &Cache{cfg: c, capacity: capacity, m: make(map[cacheKey]*centry)}
}

// Get returns the Program for t's program, compiling on first sight.
// It returns nil when the program is too long to key
// (len(Ins) > MaxCachedInstructions); callers fall back to Config.Exec,
// which faults such programs against the device limit anyway.
func (c *Cache) Get(t *core.TPP) *Program {
	if len(t.Ins) > MaxCachedInstructions {
		return nil
	}
	var k cacheKey
	k.n = uint8(len(t.Ins))
	k.mode = t.Mode
	k.version = t.Version
	k.maxIns = c.cfg.maxIns()
	for i, in := range t.Ins {
		k.ins[i] = in.Word()
	}
	if c.lastProg != nil && k == c.lastKey {
		c.hits++
		return c.lastProg
	}
	if e := c.m[k]; e != nil {
		c.hits++
		c.moveToFront(e)
		c.lastKey, c.lastProg = k, e.prog
		return e.prog
	}
	c.misses++
	e := &centry{key: k, prog: Compile(c.cfg, t)}
	c.m[k] = e
	c.pushFront(e)
	if len(c.m) > c.capacity {
		c.evict()
	}
	c.lastKey, c.lastProg = k, e.prog
	return e.prog
}

// Invalidate drops every cached compilation.  Callers flush on any
// device-state transition that could make a cached program stale —
// switch reboot (a restarted ASIC renegotiates its configuration) and
// tenant grant or revoke (guard state changed under the program).
func (c *Cache) Invalidate() {
	clear(c.m)
	c.head, c.tail = nil, nil
	c.lastProg = nil
}

// Stats returns the hit/miss counters since construction (invalidation
// does not reset them, so tests can observe re-compilations).
func (c *Cache) Stats() (hits, misses uint64) { return c.hits, c.misses }

func (c *Cache) pushFront(e *centry) {
	e.prev = nil
	e.next = c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
}

func (c *Cache) moveToFront(e *centry) {
	if c.head == e {
		return
	}
	// Unlink.
	if e.prev != nil {
		e.prev.next = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	}
	if c.tail == e {
		c.tail = e.prev
	}
	c.pushFront(e)
}

func (c *Cache) evict() {
	e := c.tail
	if e == nil {
		return
	}
	if e.prev != nil {
		e.prev.next = nil
	}
	c.tail = e.prev
	if c.head == e {
		c.head = nil
	}
	delete(c.m, e.key)
}
