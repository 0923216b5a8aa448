package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary, recorded from the
// harness's side of a public call. Spans of one job share its Job
// number; Parent is the id of the span that caused this one, -1 for a
// job's root. A layer's self time is its span's duration minus the part
// of that interval its children cover.
type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent"`
	Job     int     `json:"job"`
	Name    string  `json:"name"`
	StartUS float64 `json:"start_us"`
	EndUS   float64 `json:"end_us"`
}

// spanLog holds the traced pass's spans in memory until the run ends.
// The zero value is off: begin returns -1 and end ignores it, so the
// timed window pays one branch per call site.
type spanLog struct {
	mu    sync.Mutex
	on    bool
	epoch time.Time
	spans []span
}

func (l *spanLog) enable() {
	l.mu.Lock()
	l.on = true
	if l.epoch.IsZero() {
		l.epoch = time.Now()
	}
	l.mu.Unlock()
}

func (l *spanLog) disable() {
	l.mu.Lock()
	l.on = false
	l.mu.Unlock()
}

func (l *spanLog) begin(name string, parent, job int) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.on {
		return -1
	}
	id := len(l.spans)
	l.spans = append(l.spans, span{ID: id, Parent: parent, Job: job, Name: name,
		StartUS: float64(time.Since(l.epoch)) / 1e3})
	return id
}

func (l *spanLog) end(id int) {
	if id < 0 {
		return
	}
	l.mu.Lock()
	l.spans[id].EndUS = float64(time.Since(l.epoch)) / 1e3
	l.mu.Unlock()
}

// add records a span whose interval was measured elsewhere (the
// program's own telemetry spans), offset from start, the instant its
// clock read zero.
func (l *spanLog) add(name string, parent, job int, start time.Time, offsetNS, durNS int64) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.on {
		return -1
	}
	id := len(l.spans)
	s := float64(start.Sub(l.epoch)+time.Duration(offsetNS)) / 1e3
	l.spans = append(l.spans, span{ID: id, Parent: parent, Job: job, Name: name,
		StartUS: s, EndUS: s + float64(durNS)/1e3})
	return id
}

// write dumps the spans as one JSON array.
func (l *spanLog) write(path string) error {
	l.mu.Lock()
	data, err := json.MarshalIndent(l.spans, "", " ")
	l.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
