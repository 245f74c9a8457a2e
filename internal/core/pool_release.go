//go:build !pooldebug

package core

// Release builds carry no pool sanitizer state: poolDebug and
// blockDebug are zero-sized and every hook is an empty method the
// compiler inlines away, so the pooled hot path pays nothing for the
// instrumentation points.  Build with -tags pooldebug for the checking
// implementations (pool_debug.go).

// PoolDebug reports which pool implementation this binary carries;
// tests use it to pick the expected violation behavior (and to skip an
// allocation budget: the sanitizer formats a call site per Recycle).
//
//api:harness the build-tag switch the pool and budget tests read
const PoolDebug = false

// poolDebug is the per-packet-copy sanitizer state (empty in release).
type poolDebug struct{}

// blockDebug is the per-pool-slot sanitizer state (empty in release).
type blockDebug struct{}

func (p *Packet) checkLive(string) {}
func (p *Packet) checkRecycle()    {}
func (p *Packet) markIssued()      {}
func (p *Packet) poisonAndRetire() {}

func (b *pooledBlock) checkCanary() {}

// Poison is a no-op in release builds; see pool_debug.go.
func (t *TPP) Poison() {}
