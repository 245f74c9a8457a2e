package ring

import (
	"math/rand"
	"testing"
)

type item struct{ id int }

// Property: a Buf hands entries back in arrival order through every
// mix of growth and wrap-around, whether they leave by Pop or by At(0)
// and Drop, and At reads every position, checked against a plain slice.
func TestBufMatchesSliceModel(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	var f Buf[*item]
	var model []*item
	for i := 0; i < 20_000; i++ {
		// Phases alternate between filling and draining so the ring
		// both grows while wrapped and empties completely.
		if r.Intn(100) < 40+20*((i/1500)%2) {
			p := &item{i}
			f.Push(p)
			model = append(model, p)
		} else {
			var want *item
			if len(model) > 0 {
				if head := *f.At(0); head != model[0] {
					t.Fatalf("step %d: At(0) = %v, want %v", i, head, model[0])
				}
				want, model = model[0], model[1:]
			}
			if r.Intn(2) == 0 {
				f.Drop() // the head was checked through At(0) above
			} else if got := f.Pop(); got != want {
				t.Fatalf("step %d: Pop = %v, want %v", i, got, want)
			}
		}
		if f.Len() != len(model) {
			t.Fatalf("step %d: Len = %d, model holds %d", i, f.Len(), len(model))
		}
		if len(model) > 0 {
			if k := r.Intn(len(model)); *f.At(k) != model[k] {
				t.Fatalf("step %d: At(%d) = %v, want %v", i, k, *f.At(k), model[k])
			}
		}
	}
	if len(f.buf) < 64 {
		t.Fatalf("buffer never grew past %d: the test did not exercise growth", len(f.buf))
	}
}

// A standing backlog must not make the buffer grow with the number of
// entries passed through it.
func TestBufBoundedByOccupancy(t *testing.T) {
	var f Buf[*item]
	p := &item{}
	f.Push(p)
	for i := 0; i < 1_000_000; i++ {
		f.Push(p) // occupancy 2
		f.Pop()   // occupancy 1: never drains
	}
	if len(f.buf) > 8 {
		t.Fatalf("buffer is %d entries after 1e6 at occupancy <= 2", len(f.buf))
	}
}

func TestAtOutOfRangePanics(t *testing.T) {
	var f Buf[int]
	f.Push(1)
	f.Push(2)
	f.Pop() // one live entry, one stale slot behind the head
	for _, i := range []int{-1, 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("At(%d) with Len 1 did not panic", i)
				}
			}()
			f.At(i)
		}()
	}
}
