package main

import (
	"bufio"
	"crypto/sha256"
	"fmt"
	"os"
	"testing"

	"netsample/internal/collect"
	"netsample/internal/trace"
)

// TestInputsDeterministic pins that a workload's input is a function of
// the seed alone: two set-ups from one seed give identical NSTR bytes,
// and another seed gives different ones.
func TestInputsDeterministic(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			a := setupDigest(t, w, 7)
			if b := setupDigest(t, w, 7); a != b {
				t.Fatalf("seed 7 gave two different inputs")
			}
			if c := setupDigest(t, w, 8); a == c {
				t.Fatalf("seeds 7 and 8 gave the same input")
			}
		})
	}
}

func setupDigest(t *testing.T, w *workload, seed uint64) [32]byte {
	t.Helper()
	in, err := w.setup(seed, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	d, err := in.digest()
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestPacedPayloadsDeterministic pins that the adaptive workload's
// stored payloads are identical across two runs and across one and two
// shards. Only the node's shard count, which the wire form carries, may
// differ. Pacing is off: the output depends on the input alone, not on
// when batches arrive.
func TestPacedPayloadsDeterministic(t *testing.T) {
	base, err := lookupWorkload("paced-1s-adaptive")
	if err != nil {
		t.Fatal(err)
	}
	w := *base
	w.paced = false
	in, err := w.setup(3, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var ref [][]byte
	for i, n := range []int{2, 2, 1} {
		b := &bench{w: &w, in: in, dir: t.TempDir(), shards: n}
		got := storedPayloads(t, b)
		if i == 0 {
			ref = got
			if len(ref) < 3000 {
				t.Fatalf("only %d windows stored", len(ref))
			}
			continue
		}
		if len(got) != len(ref) {
			t.Fatalf("run %d (%d shards) stored %d windows, want %d", i, n, len(got), len(ref))
		}
		for j := range got {
			if string(got[j]) != string(ref[j]) {
				t.Fatalf("run %d (%d shards): window %d payload differs", i, n, j+1)
			}
		}
	}
}

// storedPayloads runs one pass, which must pass every check (among
// them that the store replays exactly these payloads), and returns its
// payloads with the shard count zeroed.
func storedPayloads(t *testing.T, b *bench) [][]byte {
	t.Helper()
	var out [][]byte
	b.seen = func(payloads [][]byte) {
		for _, pl := range payloads {
			s, err := collect.DecodeSnapshot(pl)
			if err != nil {
				t.Fatal(err)
			}
			s.Shards = 0
			norm, err := collect.EncodeSnapshot(s)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, norm)
		}
	}
	ps, err := b.runPass(0, false)
	if err != nil {
		t.Fatal(err)
	}
	if ps.failed > 0 || len(b.failures) > 0 {
		t.Fatalf("%d of %d operations failed: %v", ps.failed, ps.ops, b.failures)
	}
	return out
}

// digest hashes the input stream's NSTR bytes: the file as written, or
// the canonical encoding of the in-memory trace.
func (in *input) digest() ([32]byte, error) {
	h := sha256.New()
	if in.path == "" {
		// Writing to a hash cannot fail.
		_ = trace.Write(h, in.replay)
	} else {
		f, err := os.Open(in.path)
		if err != nil {
			return [32]byte{}, err
		}
		defer f.Close()
		if _, err := bufio.NewReaderSize(f, 1<<16).WriteTo(h); err != nil {
			return [32]byte{}, fmt.Errorf("hash %s: %w", in.path, err)
		}
	}
	var d [32]byte
	copy(d[:], h.Sum(nil))
	return d, nil
}
