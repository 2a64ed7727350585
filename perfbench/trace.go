package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one recorded call into a layer: its name, when it started and
// ended (nanoseconds since the recorder's epoch), the span that caused
// it (-1 for a root) and the request it served.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
}

// recorder keeps spans in memory until the run ends. A disabled
// recorder still hands out span handles but records nothing, so the
// same replay code runs traced and untraced and the difference between
// the two passes is the tracing overhead.
type recorder struct {
	on    bool
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// noSpan is the handle of a span that was not recorded; as a parent it
// marks a root.
const noSpan = -1

// start opens a span under parent for request req and returns its
// handle. Spans may be opened from several goroutines at once.
func (r *recorder) start(name string, parent, req int) int {
	if !r.on {
		return noSpan
	}
	now := time.Since(r.epoch).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, Start: now, Parent: parent, Req: req})
	return len(r.spans) - 1
}

// end closes the span with handle id.
func (r *recorder) end(id int) {
	if id == noSpan {
		return
	}
	now := time.Since(r.epoch).Nanoseconds()
	r.mu.Lock()
	r.spans[id].End = now
	r.mu.Unlock()
}

// around records fn as one span.
func (r *recorder) around(name string, parent, req int, fn func()) {
	id := r.start(name, parent, req)
	fn()
	r.end(id)
}

// layerTimes are the per-name self and total times of a span set, one
// entry per span, in nanoseconds.
type layerTimes struct {
	self, total map[string][]float64
}

// selfTimes computes each span's self time: its duration minus the part
// of its interval that its child spans cover. Children that overlap
// (shards running in parallel) count once.
func selfTimes(spans []span) layerTimes {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.Parent != noSpan {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	lt := layerTimes{self: map[string][]float64{}, total: map[string][]float64{}}
	for i, s := range spans {
		dur := s.End - s.Start
		var ivs [][2]int64
		for _, c := range children[i] {
			lo, hi := spans[c].Start, spans[c].End
			if lo < s.Start {
				lo = s.Start
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				ivs = append(ivs, [2]int64{lo, hi})
			}
		}
		sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
		covered, reach := int64(0), int64(-1<<62)
		for _, iv := range ivs {
			lo := iv[0]
			if lo < reach {
				lo = reach
			}
			if iv[1] > lo {
				covered += iv[1] - lo
			}
			if iv[1] > reach {
				reach = iv[1]
			}
		}
		lt.self[s.Name] = append(lt.self[s.Name], float64(dur-covered))
		lt.total[s.Name] = append(lt.total[s.Name], float64(dur))
	}
	return lt
}

// write stores the spans as JSON lines, one span per line, with its
// handle as "id".
func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	w := bufio.NewWriter(f)
	for i, s := range r.spans {
		line, err := json.Marshal(struct {
			ID int `json:"id"`
			span
		}{i, s})
		if err != nil {
			f.Close()
			return fmt.Errorf("trace: %w", err)
		}
		w.Write(line)
		w.WriteByte('\n')
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("trace: %w", err)
	}
	return f.Close()
}
