// Package nnstat provides the bounded-memory aggregation machinery a
// statistics processor needs when the full object would not fit — the
// situation the paper describes for the source-destination matrix,
// whose "large size" and long tail of small pairs made sampled
// characterization hard. The TopK sketch implements the Space-Saving
// algorithm (Metwally, Agrawal & El Abbadi): it tracks the heaviest
// keys of a stream with a fixed number of counters, guaranteeing that
// any key with true count above n/capacity is present, with a per-key
// overestimate bounded by the minimum counter.
package nnstat

import (
	"errors"
	"strings"
)

// TopK is a Space-Saving heavy-hitter sketch over string keys.
type TopK struct {
	s SpaceSaving[string]
}

// ErrBadCapacity reports a sketch capacity outside [1, MaxInt32].
var ErrBadCapacity = errors.New("nnstat: capacity must be in [1, MaxInt32]")

// NewTopK builds a sketch holding at most capacity counters.
func NewTopK(capacity int) (*TopK, error) {
	t := new(TopK)
	if err := t.s.init(capacity, strings.Compare); err != nil {
		return nil, err
	}
	return t, nil
}

// Add accounts weight occurrences of key.
func (t *TopK) Add(key string, weight uint64) { t.s.Add(key, weight) }

// AddBytes accounts weight occurrences of the key spelled as raw
// bytes. The map lookup uses Go's allocation-free []byte→string
// conversion, so accounting a key already in the sketch allocates
// nothing; the key string is only materialized when a counter is
// created or the minimum counter is evicted. The caller may reuse
// key's backing array across calls.
func (t *TopK) AddBytes(key []byte, weight uint64) {
	if i, ok := t.s.slots[string(key)]; ok {
		t.s.bump(i, weight)
		return
	}
	t.s.insert(string(key), weight)
}

// Reset empties the sketch for reuse, keeping its capacity and storage,
// so windowed use (reset per window) does not reallocate.
func (t *TopK) Reset() { t.s.Reset() }

// Total returns the stream weight seen.
func (t *TopK) Total() uint64 { return t.s.total }

// Entry is one reported heavy hitter.
type Entry struct {
	Key string
	// Count is the sketch's (over)estimate of the key's true count.
	Count uint64
	// MaxError bounds Count's overestimate: true count ∈
	// [Count-MaxError, Count].
	MaxError uint64
}

// Top returns up to n entries by descending estimated count (ties by
// key for determinism).
func (t *TopK) Top(n int) []Entry { return t.s.Top(n, keyName) }

func keyName(k string) string { return k }

// GuaranteedTop returns the entries whose lower bound (Count-MaxError)
// exceeds every other entry's upper bound rank-wise — the keys certain
// to be true heavy hitters.
func (t *TopK) GuaranteedTop(n int) []Entry {
	all := t.Top(len(t.s.ent))
	var out []Entry
	for i, e := range all {
		if len(out) == n {
			break
		}
		guaranteed := true
		lower := e.Count - e.MaxError
		for j := i + 1; j < len(all); j++ {
			if all[j].Count > lower {
				guaranteed = false
				break
			}
		}
		if guaranteed {
			out = append(out, e)
		}
	}
	return out
}
