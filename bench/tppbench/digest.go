package main

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"

	"repro/internal/asic"
	"repro/internal/core"
	"repro/internal/endhost"
	"repro/internal/mem"
	"repro/internal/netsim"
)

// digest folds simulated statistics into one FNV-1a word.  The
// simulator is deterministic, so for a given workload and seed the
// digest of the fixed warm-up must repeat exactly — within a process,
// across processes and across commits that claim to change speed only.
type digest struct {
	h   hash.Hash64
	buf [8]byte
}

func newDigest() *digest { return &digest{h: fnv.New64a()} }

func (d *digest) u64(v uint64) {
	binary.BigEndian.PutUint64(d.buf[:], v)
	d.h.Write(d.buf[:])
}

func (d *digest) bytes(b []byte) { d.h.Write(b) }

func (d *digest) String() string { return fmt.Sprintf("%016x", d.h.Sum64()) }

// tpp folds one received program's header state and packet memory.
func (d *digest) tpp(t *core.TPP) {
	d.u64(uint64(t.Ptr)<<8 | uint64(t.Flags))
	d.bytes(t.Mem)
}

// network folds everything the dataplane exposes about a run: per-switch
// counters, per-port byte counts, the whole scratch SRAM bank (touched
// words are the only non-zero ones), per-host delivery counts and the
// clock.
func (d *digest) network(sim *netsim.Sim, sws []*asic.Switch, hosts []*endhost.Host) {
	for _, sw := range sws {
		d.u64(sw.PacketsSwitched())
		d.u64(sw.TPPsExecuted())
		d.u64(sw.TPPsDenied())
		d.u64(sw.CStoreCommits())
		for p := 0; p < sw.Ports(); p++ {
			d.u64(sw.Port(p).EnqBytes())
			d.u64(sw.Port(p).DropBytes())
		}
		for w := 0; w < mem.SRAMWords; w++ {
			if v := sw.SRAM(w); v != 0 {
				d.u64(uint64(w)<<32 | uint64(v))
			}
		}
	}
	for _, h := range hosts {
		d.u64(h.Received)
	}
	d.u64(uint64(sim.Now()))
}
