package trace

import (
	"encoding/json"
	"errors"
	"strings"
	"testing"
)

func sample() []Record {
	return []Record{
		{Name: "fwd/conv1", Resource: "array-compute", Start: 0, Finish: 2},
		{Name: "grad-psum/fc1@H4", Resource: "link-H4", Start: 2, Finish: 5},
		{Name: "loss", Resource: "", Start: 2, Finish: 2.5},
	}
}

func TestWriteChrome(t *testing.T) {
	var b strings.Builder
	if err := WriteChrome(&b, sample()); err != nil {
		t.Fatalf("WriteChrome: %v", err)
	}
	var events []map[string]interface{}
	if err := json.Unmarshal([]byte(b.String()), &events); err != nil {
		t.Fatalf("output is not JSON: %v", err)
	}
	if len(events) != 3 {
		t.Fatalf("events = %d, want 3", len(events))
	}
	e := events[1]
	if e["name"] != "grad-psum/fc1@H4" || e["ph"] != "X" {
		t.Errorf("event malformed: %v", e)
	}
	if e["ts"].(float64) != 2e6 || e["dur"].(float64) != 3e6 {
		t.Errorf("timestamps wrong: %v", e)
	}
	// Distinct resources get distinct lanes; unbound tasks use lane 0.
	lanes := map[string]float64{}
	for _, ev := range events {
		lanes[ev["cat"].(string)] = ev["tid"].(float64)
	}
	if lanes[""] != 0 {
		t.Errorf("unbound lane = %g, want 0", lanes[""])
	}
	if lanes["array-compute"] == lanes["link-H4"] {
		t.Error("resources share a lane")
	}
}

func TestWriteChromeInvalid(t *testing.T) {
	bad := []Record{{Name: "x", Start: 5, Finish: 1}}
	var b strings.Builder
	if err := WriteChrome(&b, bad); !errors.Is(err, ErrTrace) {
		t.Errorf("inverted record accepted: %v", err)
	}
}

func TestSummarize(t *testing.T) {
	occ, err := Summarize(sample())
	if err != nil {
		t.Fatalf("Summarize: %v", err)
	}
	if len(occ) != 3 {
		t.Fatalf("occupancies = %d", len(occ))
	}
	// Sorted by busy time: link-H4 (3s) first.
	if occ[0].Resource != "link-H4" || occ[0].Busy != 3 || occ[0].Tasks != 1 {
		t.Errorf("top occupancy wrong: %+v", occ[0])
	}
	if _, err := Summarize([]Record{{Start: 2, Finish: 1}}); !errors.Is(err, ErrTrace) {
		t.Errorf("invalid record accepted: %v", err)
	}
}
