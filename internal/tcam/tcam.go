// Package tcam implements the flexible ternary match table of the
// switch pipeline (§3.1) used by the SDN flow tables of the ndb
// experiment (§2.3).
//
// Every entry carries a unique id and a version number: "ndb works
// by ... stamping each flow entry with a unique version number", which
// TPPs read back through PacketMetadata:MatchedEntryID and
// :MatchedEntryVersion.  The table as a whole has a version that bumps
// on every mutation and is exposed as Switch:FlowTableVersion.
package tcam

import (
	"cmp"
	"fmt"
	"slices"
)

// KeyWords is the width of the match vector.
const KeyWords = 4

// Match-vector word indexes.
const (
	KeyDstIP  = 0
	KeySrcIP  = 1
	KeyProto  = 2
	KeyInPort = 3
)

// Key is the parsed packet fields presented to the TCAM.
type Key [KeyWords]uint32

// Action is what happens to a matching packet.
type Action struct {
	// Drop discards the packet when set.
	Drop bool
	// OutPort is the egress port when Drop is false.
	OutPort int
}

// Entry is one ternary rule: the packet matches when
// key & Mask == Value & Mask for every word.  Higher Priority wins;
// ties break toward the lower ID, deterministically.
type Entry struct {
	ID       uint32
	Version  uint32
	Priority int
	Value    Key
	Mask     Key
	Action   Action
}

// A rule is one entry compiled for the lookup: its value pre-masked,
// so a key matches when key & mask == value word for word, and a
// pointer back to the entry, whose Action and Version Update rewrites
// in place.
type rule struct {
	value, mask Key
	e           *Entry
}

// Table is a ternary match table.
type Table struct {
	entries map[uint32]*Entry
	// rules is the entries compiled in match order (priority desc, id
	// asc); nil when Insert or Remove invalidated it.
	rules   []rule
	version uint32
	nextID  uint32
}

// New builds an empty TCAM.
func New() *Table {
	return &Table{entries: make(map[uint32]*Entry), nextID: 1}
}

// Version returns the table version, bumped on every mutation.
func (t *Table) Version() uint32 { return t.version }

// Size returns the number of installed entries.
func (t *Table) Size() int { return len(t.entries) }

// Insert installs a new rule and returns its assigned id.  The entry's
// version starts at 1.
func (t *Table) Insert(priority int, value, mask Key, action Action) uint32 {
	id := t.nextID
	t.nextID++
	t.version++
	t.entries[id] = &Entry{
		ID: id, Version: 1, Priority: priority,
		Value: value, Mask: mask, Action: action,
	}
	t.rules = nil
	return id
}

// Update replaces the action of rule id, bumping both the entry version
// and the table version — the mechanism ndb uses to detect stale
// hardware state.
func (t *Table) Update(id uint32, action Action) error {
	e, ok := t.entries[id]
	if !ok {
		return fmt.Errorf("tcam: no entry %d", id)
	}
	e.Action = action
	e.Version++
	t.version++
	return nil
}

// ErrVersionRaced is returned by UpdateIfVersion when the entry's live
// version no longer matches the writer's expectation: another writer
// mutated the entry since this writer read it, and the write was
// refused rather than silently clobbering the newer state.
var ErrVersionRaced = fmt.Errorf("tcam: entry version raced")

// UpdateIfVersion is the compare-and-swap form of Update: the action is
// installed only if the entry's live version still equals expect — the
// version the writer captured when it read the entry.  On success both
// the entry version and the table version bump, exactly like Update;
// on a version mismatch nothing changes and the error wraps
// ErrVersionRaced so callers can distinguish a lost-update race from a
// vanished entry.
//
// Versions are uint32 counters and wrap at 2^32; correctness of the
// compare does not depend on ordering, only equality, so a wrapped
// counter still detects every race except an exact 2^32-mutation ABA —
// far beyond any plausible interleaving between one read-back and one
// write.
func (t *Table) UpdateIfVersion(id, expect uint32, action Action) error {
	e, ok := t.entries[id]
	if !ok {
		return fmt.Errorf("tcam: no entry %d", id)
	}
	if e.Version != expect {
		return fmt.Errorf("%w: entry %d at version %d, writer expected %d",
			ErrVersionRaced, id, e.Version, expect)
	}
	e.Action = action
	e.Version++
	t.version++
	return nil
}

// Remove deletes rule id.
func (t *Table) Remove(id uint32) error {
	if _, ok := t.entries[id]; !ok {
		return fmt.Errorf("tcam: no entry %d", id)
	}
	delete(t.entries, id)
	t.version++
	t.rules = nil
	return nil
}

// Get returns a copy of rule id.
func (t *Table) Get(id uint32) (Entry, bool) {
	e, ok := t.entries[id]
	if !ok {
		return Entry{}, false
	}
	return *e, true
}

// Entries returns copies of all rules in match order.
func (t *Table) Entries() []Entry {
	t.compile()
	out := make([]Entry, len(t.rules))
	for i, r := range t.rules {
		out[i] = *r.e
	}
	return out
}

// Match finds the highest-priority rule covering key.
func (t *Table) Match(key Key) (Entry, bool) {
	if e, _ := t.Lookup(key); e != nil {
		return *e, true
	}
	return Entry{}, false
}

// Lookup is the dataplane's one pass over the rules: it returns the
// highest-priority rule covering key (nil when none does) and how many
// installed rules cover it — the number of forwarding alternatives the
// dataplane knows for the packet, which Table 2 exposes as
// PacketMetadata:AlternateRoutes.  The entry is the table's own: the
// caller must not modify it, and Update rewrites it in place.
//
//alloc:free
func (t *Table) Lookup(key Key) (*Entry, int) {
	t.compile()
	var win *Entry
	n := 0
	for i := range t.rules {
		r := &t.rules[i]
		if key[0]&r.mask[0] == r.value[0] && key[1]&r.mask[1] == r.value[1] &&
			key[2]&r.mask[2] == r.value[2] && key[3]&r.mask[3] == r.value[3] {
			if n == 0 {
				win = r.e
			}
			n++
		}
	}
	return win, n
}

// compile rebuilds rules after Insert or Remove invalidated them.
func (t *Table) compile() {
	if t.rules != nil {
		return
	}
	t.rules = make([]rule, 0, len(t.entries))
	for _, e := range t.entries { //lint:allow maporder (sorted below)
		r := rule{mask: e.Mask, e: e}
		for i := range r.value {
			r.value[i] = e.Value[i] & e.Mask[i]
		}
		t.rules = append(t.rules, r)
	}
	slices.SortFunc(t.rules, func(a, b rule) int {
		if c := cmp.Compare(b.e.Priority, a.e.Priority); c != 0 {
			return c
		}
		return cmp.Compare(a.e.ID, b.e.ID)
	})
}

// ExactMask is the mask selecting one word entirely.
const ExactMask = ^uint32(0)

// DstIPRule builds a (value, mask) pair matching an exact destination
// address — the common rule shape in the ndb experiment.
func DstIPRule(dst uint32) (Key, Key) {
	var v, m Key
	v[KeyDstIP] = dst
	m[KeyDstIP] = ExactMask
	return v, m
}
