package pe

import (
	"errors"
	"testing"
	"testing/quick"

	"repro/internal/nn"
)

func shapesOf(t *testing.T, m *nn.Model, batch int) []nn.LayerShapes {
	t.Helper()
	s, err := m.Shapes(batch)
	if err != nil {
		t.Fatalf("Shapes(%s): %v", m.Name, err)
	}
	return s
}

func TestDefaultValid(t *testing.T) {
	c := Default()
	if err := c.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	if c.PEs() != 168 {
		t.Errorf("PEs = %d, paper says 168 (12×14)", c.PEs())
	}
	if c.BufferKB != 108 || c.GOPS != 84e9 || c.ClockMHz != 250 {
		t.Errorf("default differs from paper §6.1: %+v", c)
	}
}

func TestValidateErrors(t *testing.T) {
	bad := []Config{
		{},
		{RowsPE: 12, ColsPE: 14},
		{RowsPE: 12, ColsPE: 14, BufferKB: 108, GOPS: 84e9, ClockMHz: 250, MinUtil: 0, ElemsBytes: 4},
		{RowsPE: 12, ColsPE: 14, BufferKB: 108, GOPS: 84e9, ClockMHz: 250, MinUtil: 2, ElemsBytes: 4},
		{RowsPE: 12, ColsPE: 14, BufferKB: 108, GOPS: 84e9, ClockMHz: 250, MinUtil: 0.5, ElemsBytes: 0},
	}
	for i, c := range bad {
		if err := c.Validate(); !errors.Is(err, ErrConfig) {
			t.Errorf("bad config %d accepted: %v", i, err)
		}
	}
}

func TestUtilizationBounds(t *testing.T) {
	c := Default()
	for _, m := range nn.Zoo() {
		for _, s := range shapesOf(t, m, 256) {
			u := c.Utilization(&s)
			if u < c.MinUtil || u > 1 {
				t.Errorf("%s/%s utilization %g outside [%g,1]", m.Name, s.Layer.Name, u, c.MinUtil)
			}
		}
	}
}

func TestUtilizationShape(t *testing.T) {
	c := Default()
	shapes := shapesOf(t, nn.VGGA(), 256)
	var conv, fc float64
	for _, s := range shapes {
		switch s.Layer.Name {
		case "conv3_1":
			conv = c.Utilization(&s)
		case "fc1":
			fc = c.Utilization(&s)
		}
	}
	// Row stationarity is designed for convolutions (paper §5); fc
	// layers sustain a lower fraction of peak.
	if conv <= fc {
		t.Errorf("conv utilization %g should exceed fc utilization %g", conv, fc)
	}
}

func TestComputeTime(t *testing.T) {
	c := Default()
	shapes := shapesOf(t, nn.VGGA(), 256)
	s := shapes[0]
	if got := c.ComputeTime(0, &s); got != 0 {
		t.Errorf("ComputeTime(0) = %g, want 0", got)
	}
	// 42e9 MACs at 84 GOPS and full utilization is one second; with
	// utilization <= 1 it can only take longer.
	if got := c.ComputeTime(42e9, &s); got < 1 {
		t.Errorf("ComputeTime(42e9 MACs) = %g s, want >= 1", got)
	}
}

func TestDRAMTraffic(t *testing.T) {
	c := Default()
	shapes := shapesOf(t, nn.LenetC(), 32)
	s := shapes[0]
	got := c.DRAMTraffic(&s, 1000, 500)
	if got < 1500 {
		t.Errorf("DRAMTraffic = %g, want >= operand+result", got)
	}
}

// Property: compute time is monotone in MACs and inversely bounded by
// peak throughput.
func TestComputeTimeProperty(t *testing.T) {
	c := Default()
	shapes := shapesOf(t, nn.AlexNet(), 64)
	prop := func(li uint8, macs uint32) bool {
		s := shapes[int(li)%len(shapes)]
		m := float64(macs%1e9) + 1
		tm := c.ComputeTime(m, &s)
		peak := 2 * m / c.GOPS
		return tm >= peak && c.ComputeTime(2*m, &s) > tm
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}
