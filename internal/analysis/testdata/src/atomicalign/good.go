package atomicalign

import "sync/atomic"

// orderedCounters puts the 64-bit atomic first: offset 0 is 8-aligned
// on every target.
type orderedCounters struct {
	hits  uint64
	ready uint32
}

func bumpOrdered(c *orderedCounters) {
	atomic.AddUint64(&c.hits, 1)
}

// typedCounters uses atomic.Uint64, which carries its own align64
// marker and may sit anywhere.
type typedCounters struct {
	ready uint32
	hits  atomic.Uint64
}

func bumpTyped(c *typedCounters) {
	c.hits.Add(1)
}

// plain64 holds a 64-bit field that is never touched atomically; its
// offset is unconstrained.
type plain64 struct {
	tag uint32
	n   uint64
}

func total(p *plain64) uint64 {
	return p.n
}

// keyed places a type-parameter field first: n's offset differs per
// instantiation, so it has no layout to check.
type keyed[K comparable] struct {
	key K
	n   uint64
}

func bumpKeyed[K comparable](k *keyed[K]) {
	atomic.AddUint64(&k.n, 1)
}
