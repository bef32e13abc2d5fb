package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"
)

// span is one timed call, recorded by the benchmark's own code around a
// call into a layer of the program. Name is "<layer>.<call>".
type span struct {
	Name    string `json:"name"`
	Start   int64  `json:"start"` // unix nanoseconds
	Dur     int64  `json:"dur"`   // nanoseconds
	Op      int    `json:"op"`    // op id, -1 outside ops
	Parent  int    `json:"parent"`
	Derived bool   `json:"derived,omitempty"` // placed from a duration the program returned
	Pid     int    `json:"pid"`
}

func (s *span) layer() string {
	if i := strings.IndexByte(s.Name, '.'); i > 0 {
		return s.Name[:i]
	}
	return s.Name
}

// spanRecorder keeps spans in memory for one single-threaded caller; the
// open spans form a stack, so every span knows its parent. A nil recorder
// records nothing.
type spanRecorder struct {
	pid   int
	spans []span
	open  []int
}

func newSpanRecorder(pid int) *spanRecorder {
	return &spanRecorder{pid: pid, spans: make([]span, 0, 4096)}
}

// begin opens a span and returns its index.
func (r *spanRecorder) begin(name string, op int) int {
	if r == nil {
		return -1
	}
	parent := -1
	if len(r.open) > 0 {
		parent = r.open[len(r.open)-1]
	}
	r.spans = append(r.spans, span{Name: name, Start: time.Now().UnixNano(), Op: op, Parent: parent, Pid: r.pid})
	r.open = append(r.open, len(r.spans)-1)
	return len(r.spans) - 1
}

// end closes the innermost open span.
func (r *spanRecorder) end() {
	if r == nil {
		return
	}
	i := r.open[len(r.open)-1]
	r.open = r.open[:len(r.open)-1]
	r.spans[i].Dur = time.Now().UnixNano() - r.spans[i].Start
}

// derived adds a child of span parent that ends where parent ends and lasts
// dur: the program reports how long a phase took, not when it started.
func (r *spanRecorder) derived(parent int, name string, dur time.Duration) int {
	if r == nil || parent < 0 {
		return -1
	}
	p := r.spans[parent]
	d := min(int64(dur), p.Dur)
	r.spans = append(r.spans, span{Name: name, Start: p.Start + p.Dur - d, Dur: d, Op: p.Op, Parent: parent, Derived: true, Pid: r.pid})
	return len(r.spans) - 1
}

// selfTimes returns each layer's self time: its spans' durations minus
// the parts their child spans cover. Children of one span never overlap
// (one caller records them in turn), so subtracting their durations is
// exact.
func selfTimes(spans []span) map[string]time.Duration {
	self := make(map[string]time.Duration)
	for i := range spans {
		self[spans[i].layer()] += time.Duration(spans[i].Dur)
	}
	for i := range spans {
		if p := spans[i].Parent; p >= 0 {
			self[spans[p].layer()] -= time.Duration(spans[i].Dur)
		}
	}
	return self
}

// selfTimeLines renders one line per layer, largest self time first.
func selfTimeLines(spans []span) []string {
	self := selfTimes(spans)
	layers := make([]string, 0, len(self))
	var total time.Duration
	for l, d := range self {
		layers = append(layers, l)
		total += d
	}
	sort.Slice(layers, func(i, j int) bool { return self[layers[i]] > self[layers[j]] })
	lines := make([]string, len(layers))
	for i, l := range layers {
		lines[i] = fmt.Sprintf("self time  %-16s %10.1f ms  %5.1f%%", l, float64(self[l])/1e6, 100*float64(self[l])/float64(total))
	}
	return lines
}

// writeChromeTrace writes the spans as Chrome trace-event JSON, the format
// the program's own trace recorder exports: complete ("X") events in
// microseconds, one process per side of the benchmark.
func writeChromeTrace(path string, spans []span) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat,omitempty"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur,omitempty"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	var t0 int64
	if len(spans) > 0 {
		t0 = spans[0].Start
		for _, s := range spans {
			t0 = min(t0, s.Start)
		}
	}
	events := []event{
		{Name: "process_name", Ph: "M", Pid: clientPid, Args: map[string]any{"name": "benchmark client"}},
		{Name: "process_name", Ph: "M", Pid: programPid, Args: map[string]any{"name": "program"}},
	}
	for _, s := range spans {
		args := map[string]any{}
		if s.Op >= 0 {
			args["op"] = s.Op
		}
		if s.Derived {
			args["derived"] = true
		}
		events = append(events, event{
			Name: s.Name, Cat: s.layer(), Ph: "X",
			Ts: float64(s.Start-t0) / 1e3, Dur: float64(s.Dur) / 1e3,
			Pid: s.Pid, Tid: 1, Args: args,
		})
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	if err := json.NewEncoder(bw).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"}); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
