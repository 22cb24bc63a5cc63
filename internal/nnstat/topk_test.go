package nnstat

import (
	"container/heap"
	"fmt"
	"sort"
	"testing"

	"netsample/internal/dist"
)

func TestNewTopKValidation(t *testing.T) {
	if _, err := NewTopK(0); err != ErrBadCapacity {
		t.Error("capacity 0 accepted")
	}
}

func TestTopKExactWhenUnderCapacity(t *testing.T) {
	tk, err := NewTopK(10)
	if err != nil {
		t.Fatal(err)
	}
	tk.Add("a", 5)
	tk.Add("b", 3)
	tk.Add("a", 2)
	top := tk.Top(10)
	if len(top) != 2 {
		t.Fatalf("entries = %d", len(top))
	}
	if top[0].Key != "a" || top[0].Count != 7 || top[0].MaxError != 0 {
		t.Fatalf("top = %+v", top[0])
	}
	if top[1].Key != "b" || top[1].Count != 3 {
		t.Fatalf("second = %+v", top[1])
	}
	if tk.Total() != 10 {
		t.Fatalf("total = %d", tk.Total())
	}
}

func TestTopKTopNTruncation(t *testing.T) {
	tk, err := NewTopK(10)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		tk.Add(fmt.Sprint(i), uint64(i+1))
	}
	if len(tk.Top(3)) != 3 {
		t.Fatal("truncation wrong")
	}
}

func TestTopKSpaceSavingGuarantee(t *testing.T) {
	// A Zipf-ish stream: the sketch must retain every key whose true
	// count exceeds total/capacity, with correct error bounds.
	tk, err := NewTopK(20)
	if err != nil {
		t.Fatal(err)
	}
	r := dist.NewRNG(200)
	truth := map[string]uint64{}
	const n = 200000
	for i := 0; i < n; i++ {
		var key string
		u := r.Float64()
		switch {
		case u < 0.3:
			key = "heavy-0"
		case u < 0.45:
			key = "heavy-1"
		case u < 0.55:
			key = "heavy-2"
		default:
			key = fmt.Sprintf("tail-%d", r.IntN(5000))
		}
		truth[key]++
		tk.Add(key, 1)
	}
	top := tk.Top(20)
	found := map[string]Entry{}
	for _, e := range top {
		found[e.Key] = e
	}
	for _, heavy := range []string{"heavy-0", "heavy-1", "heavy-2"} {
		e, ok := found[heavy]
		if !ok {
			t.Fatalf("%s missing from sketch", heavy)
		}
		// Count is an overestimate bounded by MaxError.
		if e.Count < truth[heavy] {
			t.Errorf("%s count %d below truth %d", heavy, e.Count, truth[heavy])
		}
		if e.Count-e.MaxError > truth[heavy] {
			t.Errorf("%s lower bound %d above truth %d", heavy, e.Count-e.MaxError, truth[heavy])
		}
	}
	// The three heavies must be the top three.
	if top[0].Key != "heavy-0" || top[1].Key != "heavy-1" || top[2].Key != "heavy-2" {
		t.Fatalf("order wrong: %v %v %v", top[0].Key, top[1].Key, top[2].Key)
	}
}

func TestTopKGuaranteedTop(t *testing.T) {
	tk, err := NewTopK(4)
	if err != nil {
		t.Fatal(err)
	}
	// Dominant key plus churn in the tail.
	r := dist.NewRNG(201)
	for i := 0; i < 20000; i++ {
		if r.Float64() < 0.5 {
			tk.Add("big", 1)
		} else {
			tk.Add(fmt.Sprintf("t%d", r.IntN(500)), 1)
		}
	}
	g := tk.GuaranteedTop(1)
	if len(g) != 1 || g[0].Key != "big" {
		t.Fatalf("guaranteed top = %+v", g)
	}
}

func TestTopKWeightedAdds(t *testing.T) {
	// Sampled recording: weight-k adds must behave like k unit adds.
	tk, err := NewTopK(3)
	if err != nil {
		t.Fatal(err)
	}
	tk.Add("a", 50)
	tk.Add("b", 100)
	tk.Add("c", 25)
	tk.Add("d", 200) // evicts c, inherits its count
	top := tk.Top(3)
	if top[0].Key != "d" || top[0].Count != 225 || top[0].MaxError != 25 {
		t.Fatalf("eviction accounting wrong: %+v", top[0])
	}
	if tk.Total() != 375 {
		t.Fatalf("total = %d", tk.Total())
	}
}

func TestTopKDeterministicTies(t *testing.T) {
	tk, err := NewTopK(5)
	if err != nil {
		t.Fatal(err)
	}
	tk.Add("z", 5)
	tk.Add("a", 5)
	top := tk.Top(2)
	if top[0].Key != "a" || top[1].Key != "z" {
		t.Fatalf("tie order wrong: %v %v", top[0].Key, top[1].Key)
	}
}

// TestAddBytesMatchesAdd checks the byte-key hot path is semantically
// identical to the string path, including eviction behavior.
func TestAddBytesMatchesAdd(t *testing.T) {
	a, err := NewTopK(8)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewTopK(8)
	if err != nil {
		t.Fatal(err)
	}
	rng := dist.NewRNG(11)
	buf := make([]byte, 13)
	for i := 0; i < 10_000; i++ {
		// Zipf-ish key space: low ids dominate, tail forces evictions.
		id := rng.IntN(1 + rng.IntN(64))
		for j := range buf {
			buf[j] = byte(id >> (j % 4 * 8))
		}
		a.Add(string(buf), 1)
		b.AddBytes(buf, 1)
	}
	if a.Total() != b.Total() {
		t.Fatalf("totals differ: %d vs %d", a.Total(), b.Total())
	}
	at, bt := a.Top(8), b.Top(8)
	if len(at) != len(bt) {
		t.Fatalf("top sizes differ: %d vs %d", len(at), len(bt))
	}
	for i := range at {
		if at[i] != bt[i] {
			t.Errorf("entry %d differs: %+v vs %+v", i, at[i], bt[i])
		}
	}
}

// TestAddBytesDoesNotAllocOnHit pins the alloc-free property the
// pipeline hot path relies on: accounting an existing key makes no
// allocation.
func TestAddBytesDoesNotAllocOnHit(t *testing.T) {
	tk, err := NewTopK(4)
	if err != nil {
		t.Fatal(err)
	}
	key := []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13}
	tk.AddBytes(key, 1) // insert once (allocates the key string)
	avg := testing.AllocsPerRun(1000, func() { tk.AddBytes(key, 1) })
	if avg != 0 {
		t.Errorf("AddBytes on existing key allocates %.2f per call", avg)
	}
}

// TestTopKReset checks reuse after Reset: the sketch empties but keeps
// working, and repeated windowed use converges to the same results.
func TestTopKReset(t *testing.T) {
	tk, err := NewTopK(4)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		tk.Add(fmt.Sprintf("k%d", i%6), 1)
	}
	tk.Reset()
	if tk.Total() != 0 || len(tk.Top(10)) != 0 {
		t.Fatalf("sketch not empty after Reset: total %d, %d entries",
			tk.Total(), len(tk.Top(10)))
	}
	tk.Add("after", 3)
	top := tk.Top(1)
	if len(top) != 1 || top[0].Key != "after" || top[0].Count != 3 || top[0].MaxError != 0 {
		t.Errorf("post-Reset accounting wrong: %+v", top)
	}
}

// refTopK is the original container/heap Space-Saving sketch, kept
// verbatim as the reference the slab sketch must match step for step:
// the same counters must survive every eviction, so every reported
// entry is the same.
type refTopK struct {
	capacity int
	entries  map[string]*refEntry
	h        refHeap
}

type refEntry struct {
	key     string
	count   uint64
	overcnt uint64
	heapIdx int
}

type refHeap []*refEntry

func (h refHeap) Len() int            { return len(h) }
func (h refHeap) Less(i, j int) bool  { return h[i].count < h[j].count }
func (h refHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i]; h[i].heapIdx = i; h[j].heapIdx = j }
func (h *refHeap) Push(x interface{}) { e := x.(*refEntry); e.heapIdx = len(*h); *h = append(*h, e) }
func (h *refHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

func newRefTopK(capacity int) *refTopK {
	return &refTopK{capacity: capacity, entries: make(map[string]*refEntry, capacity)}
}

func (t *refTopK) Add(key string, weight uint64) {
	if e, ok := t.entries[key]; ok {
		e.count += weight
		heap.Fix(&t.h, e.heapIdx)
		return
	}
	if len(t.entries) < t.capacity {
		e := &refEntry{key: key, count: weight}
		t.entries[key] = e
		heap.Push(&t.h, e)
		return
	}
	min := t.h[0]
	delete(t.entries, min.key)
	e := &refEntry{key: key, count: min.count + weight, overcnt: min.count, heapIdx: 0}
	t.entries[key] = e
	t.h[0] = e
	heap.Fix(&t.h, 0)
}

func (t *refTopK) Reset() {
	t.entries = make(map[string]*refEntry, t.capacity)
	t.h = t.h[:0]
}

func (t *refTopK) Top(n int) []Entry {
	out := make([]Entry, 0, len(t.entries))
	for _, e := range t.entries {
		out = append(out, Entry{Key: e.key, Count: e.count, MaxError: e.overcnt})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Key < out[j].Key
	})
	if n < len(out) {
		out = out[:n]
	}
	return out
}

// topkOp is one step of a differential stream: an add, or (reset) a
// window end at which both sketches are compared and reset.
type topkOp struct {
	key    string
	weight uint64
	reset  bool
}

// checkAgainstReference runs ops through TopK (alternating Add and
// AddBytes) and the reference, and compares every entry after each
// window.
func checkAgainstReference(t *testing.T, capacity int, ops []topkOp) {
	t.Helper()
	got, err := NewTopK(capacity)
	if err != nil {
		t.Fatal(err)
	}
	want := newRefTopK(capacity)
	window := 0
	compare := func() {
		g, w := got.Top(capacity), want.Top(capacity)
		if len(g) != len(w) {
			t.Fatalf("window %d: %d entries, reference %d", window, len(g), len(w))
		}
		for i := range g {
			if g[i] != w[i] {
				t.Fatalf("window %d entry %d: %+v, reference %+v", window, i, g[i], w[i])
			}
		}
	}
	for i, op := range ops {
		if op.reset {
			compare()
			got.Reset()
			want.Reset()
			window++
			continue
		}
		if i%2 == 0 {
			got.Add(op.key, op.weight)
		} else {
			got.AddBytes([]byte(op.key), op.weight)
		}
		want.Add(op.key, op.weight)
	}
	compare()
}

// TestTopKMatchesReference pins the slab sketch to the container/heap
// original on skewed keys, an all-unique flood, weighted adds and
// windowed reuse.
func TestTopKMatchesReference(t *testing.T) {
	r := dist.NewRNG(13)
	streams := map[string]func(i int) topkOp{
		"skewed": func(int) topkOp {
			if r.Float64() < 0.5 {
				return topkOp{key: fmt.Sprintf("h%d", r.IntN(4)), weight: 1}
			}
			return topkOp{key: fmt.Sprintf("t%d", r.IntN(3000)), weight: 1}
		},
		"flood": func(i int) topkOp {
			return topkOp{key: fmt.Sprintf("u%d", i), weight: 1}
		},
		"weighted": func(int) topkOp {
			return topkOp{key: fmt.Sprintf("w%d", r.IntN(200)), weight: uint64(1 + r.IntN(1500))}
		},
	}
	for name, next := range streams {
		for _, capacity := range []int{1, 2, 7, 64} {
			t.Run(fmt.Sprintf("%s/cap=%d", name, capacity), func(t *testing.T) {
				var ops []topkOp
				for i := 0; i < 20_000; i++ {
					if i > 0 && i%5000 == 0 {
						ops = append(ops, topkOp{reset: true})
					}
					ops = append(ops, next(i))
				}
				checkAgainstReference(t, capacity, ops)
			})
		}
	}
}

// FuzzTopKMatchesReference drives both sketches with fuzzed streams:
// the first byte picks the capacity, then each byte pair is a key from
// a small alphabet (so keys collide and counters are evicted) and a
// weight, with weight byte 0 ending a window.
func FuzzTopKMatchesReference(f *testing.F) {
	f.Add([]byte{4, 1, 1, 2, 1, 3, 1, 1, 5, 0, 0, 9, 1})
	f.Add([]byte{1, 7, 1, 7, 1, 8, 2, 9, 3, 7, 0, 8, 1})
	f.Add([]byte{16, 0, 1, 1, 1, 2, 1, 3, 1, 4, 1, 5, 1, 6, 1, 7, 1, 8, 1, 9, 1, 10, 1, 11, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		capacity := 1 + int(data[0]%32)
		var ops []topkOp
		for i := 1; i+1 < len(data); i += 2 {
			if data[i+1] == 0 {
				ops = append(ops, topkOp{reset: true})
				continue
			}
			ops = append(ops, topkOp{key: string(rune('a' + data[i]%40)), weight: uint64(data[i+1])})
		}
		checkAgainstReference(t, capacity, ops)
	})
}
