//go:build !pooldebug

package core

import (
	"testing"
	"unsafe"
)

// TestPacketSize pins a release build's packet and the blocks that carry
// one.  pooled fills the padding after Eth, and no zero-sized sanitizer
// field comes last (one would pad its struct by a word): Packet is 120
// bytes, a NewUDPPacket block 168 (the 176-byte size class, not 192) and
// a pool block 264.  Under -tags pooldebug the sanitizer state is real
// and the sizes differ.
func TestPacketSize(t *testing.T) {
	for _, c := range []struct {
		name      string
		got, want uintptr
	}{
		{"Packet", unsafe.Sizeof(Packet{}), 120},
		{"udpPacketBlock", unsafe.Sizeof(udpPacketBlock{}), 168},
		{"pooledBlock", unsafe.Sizeof(pooledBlock{}), 264},
	} {
		if c.got != c.want {
			t.Errorf("core.%s is %d bytes, want %d", c.name, c.got, c.want)
		}
	}
}
