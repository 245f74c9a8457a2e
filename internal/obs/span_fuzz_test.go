package obs

import (
	"fmt"
	"testing"
)

// FuzzSpanRecord records events built from the fuzzer's bytes into a log
// of a fuzzed capacity, on past wrap-around, and holds the log to the
// last capacity events in order, bit for bit, whether each was packed
// into a record or spilled.  Every field takes any value: mostly a small
// one, else a small negative one, one within two of ±2^bits for a slot
// of bits bits, or any 64 bits.  Times mostly step forward or back from
// the previous event, and sometimes jump by about 2^47 ns or to anywhere
// at all.  The bytes are read round and round, each one XORed with a
// hash of its position, so a short input still drives a long run whose
// fields do not move in step.
func FuzzSpanRecord(f *testing.F) {
	f.Add(uint16(0), []byte{0})
	f.Add(uint16(chunkEvents), []byte{1, 5, 9, 13, 2, 6, 10, 14, 3, 7, 11, 15})
	f.Add(uint16(chunkEvents+7), []byte{0x7f, 0x80, 0xff, 0x01, 0xfe, 0x42, 0x03, 0x11, 0xa5})
	f.Add(uint16(3*chunkEvents), []byte{0xf0, 0x21, 0x35, 0x02, 0xe4, 0x99, 0x0c, 0xfa, 0x5f, 0x13, 0x07})
	f.Fuzz(func(t *testing.T, capacity uint16, data []byte) {
		if len(data) == 0 {
			return
		}
		i := 0
		next := func() byte {
			b := data[i%len(data)] ^ byte(uint32(i)*0x9e3779b1>>24)
			i++
			return b
		}
		word := func() uint64 {
			var w uint64
			for k := 0; k < 8; k++ {
				w = w<<8 | uint64(next())
			}
			return w
		}
		// val picks a value for a field whose record slot holds bits bits.
		val := func(bits uint) uint64 {
			switch c := next(); c % 8 {
			default:
				return uint64(c >> 3)
			case 4:
				return -uint64(c >> 3)
			case 5:
				return 1<<bits - 2 + uint64(c>>3&3) // 2^bits −2 .. +1
			case 6:
				return -(1 << bits) - 2 + uint64(c>>3&3) // −2^bits −2 .. +1
			case 7:
				return word()
			}
		}
		var at int64
		event := func() SpanEvent {
			switch c := next(); c % 8 {
			default:
				at += int64(c>>3) << 20
			case 4, 5:
				at -= int64(c >> 3)
			case 6:
				at += int64(val(47)) * int64(1-2*int(c>>3&1))
			case 7:
				at = int64(word())
			}
			return SpanEvent{At: at, UID: val(64), Node: uint32(val(16)), Stage: Stage(val(6)),
				A: val(24), B: val(32)}
		}

		limit := 1 + int(capacity)%(2*chunkEvents+9)
		tr, m := NewTracer(limit), &modelTracer{limit: limit}
		for _, stop := range []int{limit / 2, limit, 2*limit + int(data[0])} {
			for len(m.all) < stop {
				ev := event()
				tr.Record(ev)
				m.all = append(m.all, ev)
			}
			checkAgainst(t, tr, m, fmt.Sprintf("cap %d, after %d events", limit, stop))
		}
	})
}
