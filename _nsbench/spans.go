package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// span is one timed interval recorded at a layer boundary from the
// benchmark's own code. Spans of one window share ID (the window Seq);
// source and reader spans carry the call index, polls and queries their
// own counters. Parent names the span kind that caused this one within
// the same pass (for window children: the window with the same ID).
type span struct {
	Pass    int    `json:"pass"`
	Name    string `json:"name"`
	ID      uint64 `json:"id"`
	Parent  string `json:"parent,omitempty"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// spanParent maps each span kind to the kind that caused it.
var spanParent = map[string]string{
	"run":             "pass",
	"source":          "run",
	"reader":          "run",
	"pace":            "run",
	"window":          "pass",
	"cut_to_snapshot": "window",
	"encode":          "window",
	"append":          "window",
	"poll":            "pass",
	"check":           "pass",
	"query":           "pass",
}

// selfKinds lists, in report order, the span kinds whose self time the
// traced run reports. A window's self time is zero by construction (its
// three children tile it), so windows are left out.
var selfKinds = []string{"pass", "run", "source", "reader", "pace",
	"cut_to_snapshot", "encode", "append", "poll", "check", "query"}

// spanBuf collects the spans of one producer goroutine; buffers are
// merged only after the producer has finished, so recording takes no
// lock.
type spanBuf struct {
	on    bool
	pass  int
	spans []span
}

func (b *spanBuf) add(name string, id uint64, start, end int64) {
	if !b.on {
		return
	}
	b.spans = append(b.spans, span{Pass: b.pass, Name: name, ID: id,
		Parent: spanParent[name], StartNS: start, EndNS: end})
}

// selfTimes returns, per span kind, the summed self time of one pass's
// spans in nanoseconds: each span's duration minus the part of its
// interval covered by its children.
func selfTimes(spans []span) map[string]int64 {
	type key struct {
		name string
		id   uint64
	}
	children := make(map[key][][2]int64)
	for _, s := range spans {
		switch s.Parent {
		case "":
			continue
		case "window":
			children[key{"window", s.ID}] = append(children[key{"window", s.ID}], [2]int64{s.StartNS, s.EndNS})
		default:
			// run and pass occur once per pass.
			children[key{s.Parent, 0}] = append(children[key{s.Parent, 0}], [2]int64{s.StartNS, s.EndNS})
		}
	}
	out := make(map[string]int64)
	for _, s := range spans {
		id := uint64(0)
		if s.Name == "window" {
			id = s.ID
		}
		out[s.Name] += s.EndNS - s.StartNS - covered(s.StartNS, s.EndNS, children[key{s.Name, id}])
	}
	return out
}

// covered returns the length of [lo, hi) covered by the union of ivs.
func covered(lo, hi int64, ivs [][2]int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	curLo, curHi := int64(0), int64(0)
	open := false
	for _, iv := range ivs {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if a >= b {
			continue
		}
		if open && a <= curHi {
			curHi = max(curHi, b)
			continue
		}
		if open {
			total += curHi - curLo
		}
		curLo, curHi, open = a, b, true
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// writeSpans dumps spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 1<<16)
	enc := json.NewEncoder(bw)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
