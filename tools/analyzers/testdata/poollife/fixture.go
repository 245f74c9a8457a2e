// Package poollife is the testdata fixture for the poollife analyzer:
// a self-contained stand-in for internal/core's pooled Packet and the
// structures fabric code retains packets in.  The analyzer keys off
// the Recycle/Adopt/Send and pool-draw method names on plain
// identifiers, so the fixture needs no dependency on the real package.
package poollife

type Packet struct {
	Len     int
	Payload []byte
}

func (p *Packet) ClonePooled() *Packet { return &Packet{Len: p.Len} }
func (p *Packet) Clone() *Packet       { return &Packet{Len: p.Len} }
func (p *Packet) Recycle()             {}
func (p *Packet) Adopt()               {}
func (p *Packet) WireLen() int         { return p.Len }
func (p *Packet) Serialize() []byte    { return p.Payload }

// Pool and host stand in for core.Pool and endhost.Host: the draws
// beside ClonePooled, and the Send that hands a pooled packet off.
type Pool struct{}

func (*Pool) Clone(p *Packet) *Packet { return &Packet{Len: p.Len} }
func (*Pool) NewUDP(n int) *Packet    { return &Packet{Len: n} }
func (*Pool) NewTPP(n int) *Packet    { return &Packet{Len: n} }

type host struct{ pool *Pool }

func (h *host) NewPacketPooled(n int) *Packet { return h.pool.NewUDP(n) }
func (h *host) NewProbePooled(n int) *Packet  { return h.pool.NewTPP(n) }
func (h *host) Send(p *Packet) bool           { return p != nil }

type queue struct {
	prog  *TPP
	head  *Packet
	items []*Packet
	byID  map[int]*Packet
	ch    chan *Packet
}

// TPP stands in for core.TPP, which a package-level NewTPP builds on the
// heap: not a pool draw.
type TPP struct{ Words int }
