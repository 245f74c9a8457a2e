package mem

import (
	"fmt"
	"math/rand"
	"testing"
)

// TestAllocatorSequenceProperty drives random sequences that interleave
// task Alloc/Free, tenant Grant/Revoke and Reset, and asserts after
// every step the isolation invariant the control-plane agent exists
// for: all live regions — both owner classes together — are pairwise
// disjoint and inside the SRAM bank.  Reset (the crash-restart path)
// must empty the task class and leave every tenant partition exactly
// where it was, and task regions allocated afterwards must route
// around the survivors (which the disjointness check then covers).
func TestAllocatorSequenceProperty(t *testing.T) {
	for _, seed := range []int64{1, 7, 41, 1234} {
		rnd := rand.New(rand.NewSource(seed))
		al := NewAllocator()
		live := map[Owner]Region{}

		check := func(step int) {
			t.Helper()
			held := al.Held()
			if len(held) != len(live) {
				t.Fatalf("seed %d step %d: allocator holds %d regions, model %d", seed, step, len(held), len(live))
			}
			for i, h := range held {
				r := h.Region
				if r != live[h.Owner] {
					t.Fatalf("seed %d step %d: %v region %+v, model %+v", seed, step, h.Owner, r, live[h.Owner])
				}
				if r.Words <= 0 || r.Base < SRAMBase || int(r.End()) > int(SRAMBase)+SRAMWords {
					t.Fatalf("seed %d step %d: %v region %+v outside the SRAM bank", seed, step, h.Owner, r)
				}
				if o, ok := ownerOf(al, r.Base); !ok || o != h.Owner {
					t.Fatalf("seed %d step %d: owner of %#x = %v, %v; want %v", seed, step, r.Base, o, ok, h.Owner)
				}
				for _, other := range held[i+1:] {
					if b := other.Region; r.Base < b.End() && b.Base < r.End() {
						t.Fatalf("seed %d step %d: %v %+v overlaps %v %+v", seed, step, h.Owner, r, other.Owner, b)
					}
				}
			}
		}

		// Sizes span degenerate, typical and bank-filling asks.
		sizes := []int{-1, 0, 1, 2, 7, 64, 150, 400, SRAMWords, SRAMWords + 1}
		for step := 0; step < 3000; step++ {
			task := fmt.Sprintf("task-%d", rnd.Intn(16))
			tenant := uint8(1 + rnd.Intn(16))
			words := sizes[rnd.Intn(len(sizes))]
			switch op := rnd.Intn(100); {
			case op < 30:
				reg, err := al.Alloc(task, words)
				_, held := live[Owner{Task: task}]
				switch {
				case err == nil && held:
					t.Fatalf("seed %d step %d: double Alloc of %q succeeded", seed, step, task)
				case err == nil:
					live[Owner{Task: task}] = reg
				}
			case op < 50:
				err := al.Free(task)
				_, held := live[Owner{Task: task}]
				if (err == nil) != held {
					t.Fatalf("seed %d step %d: Free(%q) err=%v but model held=%v", seed, step, task, err, held)
				}
				delete(live, Owner{Task: task})
			case op < 75:
				reg, err := al.Grant(tenant, words)
				_, held := live[Owner{Tenant: tenant}]
				switch {
				case err == nil && held:
					t.Fatalf("seed %d step %d: double Grant of tenant %d succeeded", seed, step, tenant)
				case err == nil:
					live[Owner{Tenant: tenant}] = reg
				}
			case op < 95:
				err := al.Revoke(tenant)
				_, held := live[Owner{Tenant: tenant}]
				if (err == nil) != held {
					t.Fatalf("seed %d step %d: Revoke(%d) err=%v but model held=%v", seed, step, tenant, err, held)
				}
				delete(live, Owner{Tenant: tenant})
			default:
				al.Reset()
				for o := range live {
					if o.Tenant == 0 {
						delete(live, o)
					}
				}
			}
			check(step)
		}
	}
}
