// Package trace renders simulated training-step schedules as Chrome
// trace-event JSON (load chrome://tracing or https://ui.perfetto.dev)
// and computes per-resource occupancy summaries. It turns the
// event-driven simulator's task timeline into an artifact an
// architecture student can actually look at: which link level is the
// bottleneck, where gradient exchanges serialize, what an overlapped
// schedule would hide.
package trace

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sort"
)

// ErrTrace reports invalid trace input.
var ErrTrace = errors.New("trace: invalid input")

// Record is one scheduled task occurrence.
type Record struct {
	Name     string  // task identifier, e.g. "fwd/conv1_1"
	Resource string  // resource it ran on, e.g. "link-H4"; "" = unbound
	Start    float64 // seconds
	Finish   float64 // seconds
}

// Validate checks the record's interval.
func (r Record) Validate() error {
	if r.Finish < r.Start {
		return fmt.Errorf("%w: record %q finishes (%g) before it starts (%g)",
			ErrTrace, r.Name, r.Finish, r.Start)
	}
	return nil
}

// chromeEvent is one complete ("X") event in the Chrome trace format.
type chromeEvent struct {
	Name string  `json:"name"`
	Cat  string  `json:"cat"`
	Ph   string  `json:"ph"`
	Ts   float64 `json:"ts"`  // microseconds
	Dur  float64 `json:"dur"` // microseconds
	PID  int     `json:"pid"`
	TID  int     `json:"tid"`
}

// WriteChrome emits the records as a Chrome trace-event JSON array.
// Each distinct resource becomes a thread lane; unbound tasks share
// lane zero.
func WriteChrome(w io.Writer, recs []Record) error {
	lanes := map[string]int{"": 0}
	var names []string
	for _, r := range recs {
		if err := r.Validate(); err != nil {
			return err
		}
		if _, ok := lanes[r.Resource]; !ok {
			names = append(names, r.Resource)
		}
		lanes[r.Resource] = 0 // placeholder, assigned below
	}
	sort.Strings(names)
	for i, n := range names {
		lanes[n] = i + 1
	}
	events := make([]chromeEvent, 0, len(recs))
	for _, r := range recs {
		events = append(events, chromeEvent{
			Name: r.Name,
			Cat:  r.Resource,
			Ph:   "X",
			Ts:   r.Start * 1e6,
			Dur:  (r.Finish - r.Start) * 1e6,
			PID:  1,
			TID:  lanes[r.Resource],
		})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(events)
}

// Occupancy is a resource's schedule summary.
type Occupancy struct {
	Resource string
	Busy     float64 // summed task durations
	Tasks    int
}

// Summarize aggregates busy time per resource, sorted by descending
// busy time.
func Summarize(recs []Record) ([]Occupancy, error) {
	agg := map[string]*Occupancy{}
	for _, r := range recs {
		if err := r.Validate(); err != nil {
			return nil, err
		}
		o, ok := agg[r.Resource]
		if !ok {
			o = &Occupancy{Resource: r.Resource}
			agg[r.Resource] = o
		}
		o.Busy += r.Finish - r.Start
		o.Tasks++
	}
	out := make([]Occupancy, 0, len(agg))
	for _, o := range agg {
		out = append(out, *o)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Busy != out[j].Busy {
			return out[i].Busy > out[j].Busy
		}
		return out[i].Resource < out[j].Resource
	})
	return out, nil
}
