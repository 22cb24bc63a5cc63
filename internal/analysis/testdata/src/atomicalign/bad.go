// Package atomicalign is the nslint golden corpus for the atomicalign
// rule: 64-bit sync/atomic targets must sit at 8-byte-aligned offsets
// under 32-bit struct layout.
package atomicalign

import "sync/atomic"

// counters places a 4-byte field before the 64-bit atomic, leaving hits
// at offset 4 on 386/arm: AddUint64 panics there.
type counters struct {
	ready uint32
	hits  uint64 // want `64-bit atomic field hits is at 32-bit offset 4`
}

func bump(c *counters) {
	atomic.AddUint64(&c.hits, 1)
}

// window is clean on its own (seq at offset 0)...
type window struct {
	seq uint64
}

func stamp(w *window) {
	atomic.StoreUint64(&w.seq, 1)
}

// ...but slot embeds it at offset 4, breaking seq's alignment.
type slot struct {
	kind uint32
	w    window // want `embeds a struct with 64-bit atomic fields at 32-bit offset 4`
}

// pair is generic: fields after val have no layout until instantiation,
// but the prefix before it does, and there seq sits at offset 4.
type pair[T any] struct {
	tag uint32
	seq uint64 // want `64-bit atomic field seq is at 32-bit offset 4`
	val T
}

func bumpPair[T any](p *pair[T]) {
	atomic.AddUint64(&p.seq, 1)
}
