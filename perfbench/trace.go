package main

import (
	"bytes"
	"encoding/json"
	"time"

	"gnnlab/internal/obs"
)

// stamp is one span timed by the benchmark around a call into a layer.
type stamp struct {
	lane         int
	name, parent string
	start, end   time.Time
}

// spanLog buffers the benchmark's own spans during a measured phase, so a
// span costs two clock reads and no allocation while the layer runs; flush
// hands them to the recorder once the phase is over. A spanLog of an
// untraced run records nothing.
type spanLog struct {
	base  time.Time
	lanes []obs.Lane
	buf   []stamp
}

// newSpanLog opens one lane per (process, thread) pair on the run's
// recorder; nil when the run is untraced.
func newSpanLog(r *run, lanes ...[2]string) *spanLog {
	if r.rec == nil {
		return nil
	}
	l := &spanLog{base: r.recStart, buf: make([]stamp, 0, 4096)}
	for _, pt := range lanes {
		l.lanes = append(l.lanes, r.rec.Lane(pt[0], pt[1]))
	}
	return l
}

func (l *spanLog) add(lane int, name, parent string, start, end time.Time) {
	if l == nil {
		return
	}
	l.buf = append(l.buf, stamp{lane: lane, name: name, parent: parent, start: start, end: end})
}

// flush records the buffered spans on the recorder and empties the log.
func (l *spanLog) flush() {
	if l == nil {
		return
	}
	for _, s := range l.buf {
		var attrs []obs.Attr
		if s.parent != "" {
			attrs = append(attrs, obs.Attr{Key: "parent", Value: s.parent})
		}
		l.lanes[s.lane].Complete(s.name, s.start.Sub(l.base).Seconds(), s.end.Sub(s.start).Seconds(), attrs...)
	}
	l.buf = l.buf[:0]
}

// spanSeconds sums, per span name, the durations of the complete spans the
// recorder holds on the named process — the way the benchmark reads spans
// the program itself records.
func spanSeconds(rec *obs.Recorder, process string) (map[string]float64, error) {
	var buf bytes.Buffer
	if err := rec.WriteTrace(&buf); err != nil {
		return nil, err
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Dur  float64        `json:"dur"`
			Pid  int            `json:"pid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		return nil, err
	}
	pid := -1
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "M" && ev.Name == "process_name" && ev.Args["name"] == process {
			pid = ev.Pid
		}
	}
	sums := map[string]float64{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" && ev.Pid == pid {
			sums[ev.Name] += ev.Dur / 1e6
		}
	}
	return sums, nil
}
