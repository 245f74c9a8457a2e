// Package l2 implements the Ethernet MAC learning table of the switch
// pipeline ("a combination of layer 2 MAC table, layer 3 longest-prefix
// match table and a flexible TCAM table", §3.1).
//
// The table learns source addresses as packets arrive and ages entries
// out after a configurable lifetime, like a commodity switching ASIC.
// It is keyed by the address as an integer (core.MAC.Uint64), so a
// learn or a lookup hashes one machine word rather than a 6-byte array.
//
// Where one flow dominates a switch it relearns the same source on
// packet after packet, so the table keeps a one-entry write-back memo
// of the last source learned:
// relearning it updates the memo alone, and the map is written only
// when a different source arrives (or Expire walks the map).  The
// memo's key is always in the map, so the memo changes no answer and
// no Size; it only saves the map write.
package l2

import (
	"repro/internal/core"
)

// DefaultAge is the entry lifetime when none is configured (the common
// commodity-switch default of 300 seconds).
const DefaultAge = int64(300e9)

// noMemo is the memo key while the memo holds nothing: wider than any
// 48-bit address, so no Learn or Lookup matches it.
const noMemo = uint64(1) << 63

type entry struct {
	port      int
	learnedAt int64
}

// Table is a MAC learning table.  Times are int64 nanoseconds so the
// package stays independent of the simulator.
type Table struct {
	age     int64
	entries map[uint64]entry // keyed by core.MAC.Uint64
	// memoKey is the last source learned (or noMemo), always a key of
	// entries; memo is its current entry, newer than the map's copy
	// while dirty.
	memoKey uint64
	memo    entry
	dirty   bool
}

// New builds a table with entry lifetime age (nanoseconds); age <= 0
// selects DefaultAge.
func New(age int64) *Table {
	if age <= 0 {
		age = DefaultAge
	}
	return &Table{age: age, entries: make(map[uint64]entry), memoKey: noMemo}
}

// Learn records that mac was seen on port at time now.  Relearning
// refreshes the timestamp and moves the entry if the station moved.
// Broadcast source addresses are never learned.
//
//alloc:free
func (t *Table) Learn(mac core.MAC, port int, now int64) {
	if mac.IsBroadcast() {
		return
	}
	key := mac.Uint64()
	e := entry{port: port, learnedAt: now}
	if key == t.memoKey {
		t.memo, t.dirty = e, true
		return
	}
	t.writeBack()
	t.entries[key] = e
	t.memoKey, t.memo = key, e
}

// writeBack stores a dirty memo into the map.
//
//alloc:free
func (t *Table) writeBack() {
	if t.dirty {
		t.entries[t.memoKey] = t.memo
		t.dirty = false
	}
}

// Lookup returns the port mac was last seen on, if the entry is still
// fresh at time now.  Stale entries are removed on access.
//
//alloc:free
func (t *Table) Lookup(mac core.MAC, now int64) (port int, ok bool) {
	key := mac.Uint64()
	e := t.memo
	if key != t.memoKey {
		if e, ok = t.entries[key]; !ok {
			return 0, false
		}
	}
	if now-e.learnedAt > t.age {
		t.evict(key)
		return 0, false
	}
	return e.port, true
}

// evict removes key's stale entry from the map, and from the memo if it
// is the memo's (the memo's key is always in the map).
func (t *Table) evict(key uint64) {
	if key == t.memoKey {
		t.memoKey, t.dirty = noMemo, false
	}
	delete(t.entries, key)
}

// Size returns the number of entries currently held (including entries
// that would age out on their next lookup).
func (t *Table) Size() int { return len(t.entries) }

// Flush removes every entry, as a control-plane clear would.
func (t *Table) Flush() {
	clear(t.entries)
	t.memoKey, t.dirty = noMemo, false
}

// Expire removes all entries stale at time now; switches run this
// periodically from their housekeeping timer.
func (t *Table) Expire(now int64) {
	t.writeBack()
	for key, e := range t.entries { //lint:allow maporder (pure deletion, order-free)
		if now-e.learnedAt > t.age {
			t.evict(key)
		}
	}
}
