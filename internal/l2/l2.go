// Package l2 implements the Ethernet MAC learning table of the switch
// pipeline ("a combination of layer 2 MAC table, layer 3 longest-prefix
// match table and a flexible TCAM table", §3.1).
//
// The table learns source addresses as packets arrive and ages entries
// out after a configurable lifetime, like a commodity switching ASIC.
// It is keyed by the address as an integer (core.MAC.Uint64), so a
// learn or a lookup hashes one machine word rather than a 6-byte array.
package l2

import (
	"repro/internal/core"
)

// DefaultAge is the entry lifetime when none is configured (the common
// commodity-switch default of 300 seconds).
const DefaultAge = int64(300e9)

type entry struct {
	port      int
	learnedAt int64
}

// Table is a MAC learning table.  Times are int64 nanoseconds so the
// package stays independent of the simulator.
type Table struct {
	age     int64
	entries map[uint64]entry // keyed by core.MAC.Uint64
}

// New builds a table with entry lifetime age (nanoseconds); age <= 0
// selects DefaultAge.
func New(age int64) *Table {
	if age <= 0 {
		age = DefaultAge
	}
	return &Table{age: age, entries: make(map[uint64]entry)}
}

// Learn records that mac was seen on port at time now.  Relearning
// refreshes the timestamp and moves the entry if the station moved.
// Broadcast source addresses are never learned.
func (t *Table) Learn(mac core.MAC, port int, now int64) {
	if mac.IsBroadcast() {
		return
	}
	t.entries[mac.Uint64()] = entry{port: port, learnedAt: now}
}

// Lookup returns the port mac was last seen on, if the entry is still
// fresh at time now.  Stale entries are removed on access.
func (t *Table) Lookup(mac core.MAC, now int64) (port int, ok bool) {
	key := mac.Uint64()
	e, ok := t.entries[key]
	if !ok {
		return 0, false
	}
	if now-e.learnedAt > t.age {
		delete(t.entries, key)
		return 0, false
	}
	return e.port, true
}

// Size returns the number of entries currently held (including entries
// that would age out on their next lookup).
func (t *Table) Size() int { return len(t.entries) }

// Flush removes every entry, as a control-plane clear would.
func (t *Table) Flush() { clear(t.entries) }

// Expire removes all entries stale at time now; switches run this
// periodically from their housekeeping timer.
func (t *Table) Expire(now int64) {
	for key, e := range t.entries { //lint:allow maporder (pure deletion, order-free)
		if now-e.learnedAt > t.age {
			delete(t.entries, key)
		}
	}
}
