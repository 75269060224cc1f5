package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one replay
// share a call id; parent is the index of the enclosing span in the
// tracer's span list (-1 for a root).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	Call   int32  `json:"call"`
	// Shard is the engine task the span runs in (a shard, or a
	// repetition chunk for the classic engine), or -1 for work the
	// engine does on its orchestrating goroutine.
	Shard int32 `json:"shard"`
}

// tracer records spans and counters of a single-goroutine replay. When
// off, begin/end/count do nothing, so the same replay code measures the
// untraced baseline the tracing overhead is taken against. Spans stay
// in memory until the run writes them out.
type tracer struct {
	on     bool
	epoch  time.Time
	call   int32
	spans  []span
	stack  []int32
	counts map[string]int64 // per-call counters, reset by startCall
}

func newTracer(on bool) *tracer {
	return &tracer{on: on, epoch: time.Now(), counts: map[string]int64{}}
}

// startCall opens a new call id and clears the per-call counters.
func (t *tracer) startCall(id int32) {
	t.call = id
	clear(t.counts)
}

// begin opens a span inside the innermost open one. shard is -1 for
// orchestrator-side work.
func (t *tracer) begin(name string, shard int) int32 {
	if !t.on {
		return -1
	}
	parent := int32(-1)
	if k := len(t.stack); k > 0 {
		parent = t.stack[k-1]
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.epoch)), Parent: parent, Call: t.call, Shard: int32(shard)})
	t.stack = append(t.stack, id)
	return id
}

// end closes span id, which must be the innermost open span.
func (t *tracer) end(id int32) {
	if id < 0 {
		return
	}
	t.spans[id].End = int64(time.Since(t.epoch))
	t.stack = t.stack[:len(t.stack)-1]
}

// count adds n to a per-call counter.
func (t *tracer) count(name string, n int64) {
	if t.on {
		t.counts[name] += n
	}
}

// callSpans returns the spans of call id (a contiguous run, since calls
// do not interleave).
func (t *tracer) callSpans(id int32) []span {
	lo := sort.Search(len(t.spans), func(i int) bool { return t.spans[i].Call >= id })
	hi := sort.Search(len(t.spans), func(i int) bool { return t.spans[i].Call > id })
	return t.spans[lo:hi]
}

// selfTimes returns, per span name, the summed self time in seconds of
// the given spans: each span's duration minus the part of its interval
// that its direct children cover. Parent indices are absolute indices
// into the tracer's span list; base is the absolute index of spans[0].
func selfTimes(spans []span, base int32) map[string]float64 {
	children := make([][]span, len(spans))
	for _, s := range spans {
		if p := s.Parent - base; s.Parent >= 0 && p >= 0 && int(p) < len(spans) {
			children[p] = append(children[p], s)
		}
	}
	out := map[string]float64{}
	for i, s := range spans {
		out[s.Name] += float64(s.End-s.Start-covered(s, children[i])) / 1e9
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's interval.
func covered(parent span, children []span) int64 {
	if len(children) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for k, x := range iv {
		if k == 0 || x[0] > curHi {
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
		} else if x[1] > curHi {
			curHi = x[1]
		}
	}
	return total + curHi - curLo
}

// parallelTime is the summed duration of the outermost spans that run
// inside engine tasks (Shard >= 0): the part of a replay the engine can
// spread over workers.
func parallelTime(spans []span, base int32) float64 {
	var ns int64
	for _, s := range spans {
		if s.Shard < 0 {
			continue
		}
		if p := s.Parent - base; s.Parent >= 0 && p >= 0 && int(p) < len(spans) && spans[p].Shard >= 0 {
			continue
		}
		ns += s.End - s.Start
	}
	return float64(ns) / 1e9
}

// shardImbalance is max over mean of the per-task busy time in spans
// named name (1 = perfectly balanced), or 0 when no task ran one.
func shardImbalance(spans []span, name string) float64 {
	busy := map[int32]int64{}
	for _, s := range spans {
		if s.Name == name && s.Shard >= 0 {
			busy[s.Shard] += s.End - s.Start
		}
	}
	if len(busy) == 0 {
		return 0
	}
	var sum, top int64
	for _, b := range busy {
		sum += b
		top = max(top, b)
	}
	return float64(top) * float64(len(busy)) / float64(sum)
}

// writeSpans writes every recorded span as one JSON document.
func (t *tracer) writeSpans(w io.Writer) error {
	if err := json.NewEncoder(w).Encode(map[string]any{"spans": t.spans}); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
