package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one timed call made by the benchmark. Spans of one run share RunID;
// Parent indexes the enclosing span (-1 for a root).
type span struct {
	RunID   int    `json:"run_id"`
	Name    string `json:"name"`
	Parent  int    `json:"parent"`
	StartNs int64  `json:"start_ns"` // since the benchmark started
	EndNs   int64  `json:"end_ns"`
}

// spanLog keeps spans in memory until the benchmark ends.
type spanLog struct {
	origin time.Time
	spans  []span
}

func newSpanLog() *spanLog { return &spanLog{origin: time.Now()} }

// add records a span and returns its index for use as a parent.
func (l *spanLog) add(runID int, name string, parent int, start, end time.Time) int {
	l.spans = append(l.spans, span{
		RunID:   runID,
		Name:    name,
		Parent:  parent,
		StartNs: start.Sub(l.origin).Nanoseconds(),
		EndNs:   end.Sub(l.origin).Nanoseconds(),
	})
	return len(l.spans) - 1
}

func (l *spanLog) write(path string) error {
	b, err := json.MarshalIndent(l.spans, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
