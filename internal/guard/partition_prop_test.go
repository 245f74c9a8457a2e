package guard

import (
	"math/rand"
	"testing"

	"repro/internal/mem"
)

// TestPartitionInvariants drives a Table through long random
// register/deregister sequences, with operator task regions coming and
// going in the same allocator, and checks after every step the
// invariant the guard's safety argument rests on: relocation through
// each live grant is a bijection from the tenant's relative window onto
// exactly its physical partition.  (That partitions and task regions
// are pairwise disjoint is the allocator's own property test, in
// internal/mem.)
func TestPartitionInvariants(t *testing.T) {
	for _, seed := range []int64{1, 7, 42, 1234} {
		rng := rand.New(rand.NewSource(seed))
		al := mem.NewAllocator()
		tb := NewTable(al)
		live := make(map[TenantID]mem.Region)
		for step := 0; step < 2000; step++ {
			if rng.Intn(4) == 0 {
				// Operator churn shifts where the next partition lands.
				if al.Free("task") != nil {
					al.Alloc("task", 1+rng.Intn(300)) //nolint:errcheck // a full bank is fine
				}
			}
			id := TenantID(1 + rng.Intn(31))
			if _, ok := live[id]; ok && rng.Intn(2) == 0 {
				reg, err := tb.Deregister(id)
				if err != nil {
					t.Fatalf("seed %d step %d: deregister live tenant %d: %v", seed, step, id, err)
				}
				if reg != live[id] {
					t.Fatalf("seed %d step %d: deregister returned %+v, granted %+v", seed, step, reg, live[id])
				}
				delete(live, id)
			} else if !ok {
				// Sizes span degenerate, typical and bank-filling asks.
				words := []int{-1, 0, 1, 2, 7, 64, 400, mem.SRAMWords, mem.SRAMWords + 1}[rng.Intn(9)]
				g, err := tb.Register(id, DefaultACL(), words, 0, 0)
				if err == nil {
					live[id] = g.Partition
				}
			}
			ids := tb.Tenants()
			if len(ids) != len(live) {
				t.Fatalf("seed %d step %d: table holds %d tenants, model %d", seed, step, len(ids), len(live))
			}
			for _, id := range ids {
				g, ok := tb.Lookup(id)
				if !ok || g.Partition != live[id] {
					t.Fatalf("seed %d step %d: tenant %d partition drifted: %+v vs %+v", seed, step, id, g.Partition, live[id])
				}
				checkBijection(t, seed, step, id, g)
			}
		}
	}
}

// checkBijection walks the whole SRAM namespace through grant g:
// in-window addresses must map injectively onto exactly the granted
// words, out-of-window addresses must be refused.
func checkBijection(t *testing.T, seed int64, step int, id TenantID, g Grant) {
	t.Helper()
	reg := g.Partition
	hit := make(map[mem.Addr]bool, reg.Words)
	for k := 0; k < mem.SRAMWords; k++ {
		rel := mem.SRAMBase + mem.Addr(k)
		phys, ok := g.Relocate(rel)
		if k < reg.Words {
			if !ok {
				t.Fatalf("seed %d step %d: tenant %d word %d refused inside its window", seed, step, id, k)
			}
			if !reg.Contains(phys) {
				t.Fatalf("seed %d step %d: tenant %d word %d relocated to %#x outside %+v", seed, step, id, k, phys, reg)
			}
			if hit[phys] {
				t.Fatalf("seed %d step %d: tenant %d relocation not injective at %#x", seed, step, id, phys)
			}
			hit[phys] = true
		} else if ok {
			t.Fatalf("seed %d step %d: tenant %d word %d relocated past its bound", seed, step, id, k)
		}
	}
	// Injective + |domain| == |range| == Words ⇒ onto: surjectivity for
	// free, but assert it anyway.
	if len(hit) != reg.Words {
		t.Fatalf("seed %d step %d: tenant %d covered %d of %d words", seed, step, id, len(hit), reg.Words)
	}
}
