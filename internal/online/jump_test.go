package online

import (
	"errors"
	"fmt"
	"testing"

	"netsample/internal/dist"
)

// offerDecisions runs a fresh sampler over ts one Offer at a time.
func offerDecisions(s Sampler, ts []int64) []bool {
	out := make([]bool, len(ts))
	for i, t := range ts {
		out[i] = s.Offer(t)
	}
	return out
}

// TestSkipMatchesOffer pins the Counted contract: jumping from selection
// to selection with Skip picks exactly the packets Offer picks, for
// every phase and granularity, including k = 1 and the mid-stream
// granularity change the adaptive pipeline applies.
func TestSkipMatchesOffer(t *testing.T) {
	const n = 5_000
	ts := adversarialTimestamps(3, n, 5_000)
	makers := map[string]func() Counted{}
	for _, k := range []int{1, 2, 7, 50} {
		for _, off := range []int{0, k / 2, k - 1} {
			k, off := k, off
			makers[fmt.Sprintf("systematic k=%d offset=%d", k, off)] = func() Counted {
				s, err := NewSystematic(k, off)
				if err != nil {
					t.Fatal(err)
				}
				return s
			}
		}
		k := k
		makers[fmt.Sprintf("stratified k=%d", k)] = func() Counted {
			s, err := NewStratified(k, dist.NewRNG(uint64(k)))
			if err != nil {
				t.Fatal(err)
			}
			return s
		}
	}
	for name, mk := range makers {
		want := offerDecisions(mk(), ts)
		s := mk()
		got := make([]bool, n)
		for i := s.Skip(); i < n; i += 1 + s.Skip() {
			got[i] = true
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: packet %d Skip selection %v, Offer %v", name, i, got[i], want[i])
			}
		}
	}

	// Re-anchoring mid-stream (SetGranularity + Reset at offset 0) makes
	// the next packet the first of the new schedule under both forms.
	a, _ := NewSystematic(8, 0)
	b, _ := NewSystematic(8, 0)
	var viaOffer, viaSkip []int
	for i := 0; i < 100; i++ {
		if i == 37 {
			if err := a.SetGranularity(3); err != nil {
				t.Fatal(err)
			}
			a.Reset()
		}
		if a.Offer(0) {
			viaOffer = append(viaOffer, i)
		}
	}
	for i := b.Skip(); i < 100; i += 1 + b.Skip() {
		if i >= 37 {
			break
		}
		viaSkip = append(viaSkip, i)
	}
	if err := b.SetGranularity(3); err != nil {
		t.Fatal(err)
	}
	b.Reset()
	for i := 37 + b.Skip(); i < 100; i += 1 + b.Skip() {
		viaSkip = append(viaSkip, i)
	}
	if len(viaOffer) != len(viaSkip) {
		t.Fatalf("re-anchored schedules differ: %v vs %v", viaOffer, viaSkip)
	}
	for i := range viaOffer {
		if viaOffer[i] != viaSkip[i] {
			t.Fatalf("re-anchored schedules differ: %v vs %v", viaOffer, viaSkip)
		}
	}
}

// TestNewMethod checks the method table builds each named method and
// rejects unknown names.
func TestNewMethod(t *testing.T) {
	want := map[string]string{
		"systematic":       "online-systematic",
		"stratified":       "online-stratified",
		"systematic-timer": "online-systematic-timer",
		"stratified-timer": "online-stratified-timer",
	}
	if len(Methods) != len(want) {
		t.Fatalf("Methods = %v", Methods)
	}
	for _, m := range Methods {
		s, err := NewMethod(m, 10, 1_000, dist.NewRNG(1))
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		if s.Name() != want[m] {
			t.Errorf("%s built %s", m, s.Name())
		}
		if _, counted := s.(Counted); counted == IsTimer(m) {
			t.Errorf("%s: Counted %v, IsTimer %v", m, counted, IsTimer(m))
		}
	}
	if _, err := NewMethod("random", 10, 1_000, nil); !errors.Is(err, ErrUnknownMethod) {
		t.Errorf("unknown method error = %v", err)
	}
	if _, err := NewMethod("systematic", 0, 1_000, nil); !errors.Is(err, ErrBadGranularity) {
		t.Errorf("k = 0 error = %v", err)
	}
}
