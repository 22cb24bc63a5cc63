package nnstat

import (
	"math"
	"slices"
)

// SpaceSaving is the Space-Saving heavy-hitter sketch over any
// comparable key. TopK is its string-key instance; the pipeline shards
// run it over packed flow tuples.
//
// The keys live in a slab of at most capacity entries, made once. The
// counts live in a min-heap of (count, slab index) nodes, so a heap
// comparison reads no slab entry; each entry records its node's heap
// position. The heap's sift-up and sift-down make exactly
// container/heap's comparisons and swaps, so on equal counts the same
// counter sits at the root and is evicted as it would be under
// container/heap. An evicted counter's slot takes the newcomer in
// place, so after the fill the sketch never allocates.
type SpaceSaving[K comparable] struct {
	capacity int
	cmp      func(a, b K) int
	slots    map[K]int32
	ent      []ssEntry[K]
	heap     []ssNode // heap[0] holds the minimum count
	total    uint64
}

type ssEntry[K comparable] struct {
	key  K
	over uint64 // upper bound on the overestimate
	pos  int32  // index of the entry's node in heap
}

type ssNode struct {
	count uint64
	slot  int32 // index in ent
}

// NewSpaceSaving builds a sketch holding at most capacity counters.
// cmp orders keys (negative, zero, positive as a < b, a == b, a > b);
// Top breaks count ties with it.
func NewSpaceSaving[K comparable](capacity int, cmp func(a, b K) int) (*SpaceSaving[K], error) {
	s := new(SpaceSaving[K])
	if err := s.init(capacity, cmp); err != nil {
		return nil, err
	}
	return s, nil
}

func (s *SpaceSaving[K]) init(capacity int, cmp func(a, b K) int) error {
	if capacity < 1 || capacity > math.MaxInt32 {
		return ErrBadCapacity
	}
	s.capacity = capacity
	s.cmp = cmp
	s.slots = make(map[K]int32, capacity)
	s.ent = make([]ssEntry[K], 0, capacity)
	s.heap = make([]ssNode, 0, capacity)
	return nil
}

// Add accounts weight occurrences of key.
func (s *SpaceSaving[K]) Add(key K, weight uint64) {
	if i, ok := s.slots[key]; ok {
		s.bump(i, weight)
		return
	}
	s.insert(key, weight)
}

// bump adds weight to the counter in slot i.
func (s *SpaceSaving[K]) bump(i int32, weight uint64) {
	s.total += weight
	pos := int(s.ent[i].pos)
	s.heap[pos].count += weight
	s.fix(pos)
}

// insert accounts a key that holds no counter: it fills a free slot,
// or else evicts the minimum counter, whose count the newcomer
// inherits as the classic Space-Saving overestimate bound.
func (s *SpaceSaving[K]) insert(key K, weight uint64) {
	s.total += weight
	if len(s.ent) < s.capacity {
		i := int32(len(s.ent))
		//nslint:allow hotalloc fixed capacity: ent is made with cap = capacity and this branch runs only while len(ent) < capacity
		s.ent = append(s.ent, ssEntry[K]{key: key, pos: int32(len(s.heap))})
		//nslint:allow hotalloc fixed capacity: heap is made with cap = capacity and holds one node per ent slot
		s.heap = append(s.heap, ssNode{count: weight, slot: i})
		//nslint:allow hotalloc the map is made for capacity keys and never holds more
		s.slots[key] = i
		s.up(len(s.heap) - 1)
		return
	}
	root := &s.heap[0]
	i := root.slot
	e := &s.ent[i]
	delete(s.slots, e.key)
	e.key, e.over = key, root.count
	root.count += weight
	//nslint:allow hotalloc evict branch: one key was deleted just above, so the map stays at capacity keys
	s.slots[key] = i
	s.fix(0)
}

func (s *SpaceSaving[K]) less(i, j int) bool {
	return s.heap[i].count < s.heap[j].count
}

func (s *SpaceSaving[K]) swap(i, j int) {
	h := s.heap
	h[i], h[j] = h[j], h[i]
	s.ent[h[i].slot].pos = int32(i)
	s.ent[h[j].slot].pos = int32(j)
}

// fix, up and down are container/heap's Fix, up and down, step for
// step.
func (s *SpaceSaving[K]) fix(i int) {
	if !s.down(i) {
		s.up(i)
	}
}

func (s *SpaceSaving[K]) up(j int) {
	for {
		i := (j - 1) / 2 // parent
		if i == j || !s.less(j, i) {
			break
		}
		s.swap(i, j)
		j = i
	}
}

func (s *SpaceSaving[K]) down(i0 int) bool {
	n := len(s.heap)
	i := i0
	for {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 { // j1 < 0 after int overflow
			break
		}
		j := j1 // left child
		if j2 := j1 + 1; j2 < n && s.less(j2, j1) {
			j = j2 // right child
		}
		if !s.less(j, i) {
			break
		}
		s.swap(i, j)
		i = j
	}
	return i > i0
}

// Reset empties the sketch for reuse, keeping its storage, so windowed
// use (reset per window) does not reallocate.
func (s *SpaceSaving[K]) Reset() {
	clear(s.slots)
	s.ent = s.ent[:0]
	s.heap = s.heap[:0]
	s.total = 0
}

// Top returns up to n entries by descending estimated count, ties by
// ascending key under the sketch's cmp. Only the returned entries'
// keys are spelled, by name.
func (s *SpaceSaving[K]) Top(n int, name func(K) string) []Entry {
	idx := make([]int32, len(s.ent))
	for i := range idx {
		idx[i] = int32(i)
	}
	slices.SortFunc(idx, func(a, b int32) int {
		ca, cb := s.count(a), s.count(b)
		switch {
		case ca > cb:
			return -1
		case ca < cb:
			return 1
		}
		return s.cmp(s.ent[a].key, s.ent[b].key)
	})
	if n < len(idx) {
		idx = idx[:n]
	}
	out := make([]Entry, len(idx))
	for i, j := range idx {
		e := &s.ent[j]
		out[i] = Entry{Key: name(e.key), Count: s.count(j), MaxError: e.over}
	}
	return out
}

// count returns the count of the counter in slot i.
func (s *SpaceSaving[K]) count(i int32) uint64 { return s.heap[s.ent[i].pos].count }
