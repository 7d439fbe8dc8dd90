package partition

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/comm"
	"repro/internal/nn"
	"repro/internal/runner"
	"repro/internal/tensor"
)

// cancelChain builds an n-layer conv chain whose shapes stay constant,
// so brute-force enumeration cost scales only with the code space.
func cancelChain(n int) *nn.Model {
	m := &nn.Model{Name: fmt.Sprintf("cancel-chain-%d", n), Input: nn.Input{H: 4, W: 4, C: 2}}
	for i := 0; i < n; i++ {
		m.Layers = append(m.Layers, nn.Layer{
			Name: fmt.Sprintf("c%d", i), Type: nn.Conv, K: 3, Pad: 1, Cout: 2, Act: nn.ReLU,
		})
	}
	return m
}

// cancelFork builds a DAG with branches parallel paths between one
// producer and one join — frontier width grows with branches, and the
// non-chain shape forces the frontier DP (with its per-layer ctx
// checks).
func cancelFork(branches int) *nn.Model {
	m := &nn.Model{Name: fmt.Sprintf("cancel-fork-%d", branches), Input: nn.Input{H: 4, W: 4, C: 2}}
	m.Layers = append(m.Layers, nn.Layer{Name: "a", Type: nn.Conv, K: 3, Pad: 1, Cout: 2, Act: nn.ReLU})
	var ins []string
	for i := 0; i < branches; i++ {
		name := fmt.Sprintf("b%d", i)
		m.Layers = append(m.Layers, nn.Layer{
			Name: name, Type: nn.Conv, K: 3, Pad: 1, Cout: 2, Act: nn.ReLU, Inputs: []string{"a"},
		})
		ins = append(ins, name)
	}
	m.Layers = append(m.Layers, nn.Layer{Name: "join", Type: nn.FC, Cout: 4, Inputs: ins})
	return m
}

// canceledCtx returns an already-canceled context.
func canceledCtx() context.Context {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	return ctx
}

func TestPreCanceledContextRefusesWork(t *testing.T) {
	ctx := canceledCtx()
	pool := runner.Serial()
	chain := cancelChain(6)
	fork := cancelFork(3)

	if _, err := Solve(Request{Model: chain, Batch: 2, Levels: unit(2), Ctx: ctx, Pool: pool, Method: MethodBrute}); !errors.Is(err, context.Canceled) {
		t.Errorf("brute Solve = %v, want context.Canceled", err)
	}
	if _, err := Solve(Request{Model: fork, Batch: 2, Levels: unit(2), Ctx: ctx}); !errors.Is(err, context.Canceled) {
		t.Errorf("Solve = %v, want context.Canceled", err)
	}

	shapes, err := fork.Shapes(2)
	if err != nil {
		t.Fatal(err)
	}
	preds, err := fork.LayerPreds()
	if err != nil {
		t.Fatal(err)
	}
	var sh tensor.Shard
	amounts := make([]comm.LayerAmounts, len(shapes))
	for l := range shapes {
		amounts[l] = comm.Amounts(&shapes[l], sh)
	}
	if _, _, err := twoWayGraphWith(ctx, amounts, preds, unitCosts); !errors.Is(err, context.Canceled) {
		t.Errorf("twoWayGraphWith = %v, want context.Canceled", err)
	}
}

// TestBruteForceCancelMidSearch cancels a 2^24-assignment enumeration
// shortly after it starts and requires a prompt typed return — the
// deadline/resilience contract the service relies on. Uncanceled, this
// search would run for minutes.
func TestBruteForceCancelMidSearch(t *testing.T) {
	m := cancelChain(12) // 12 layers x 2 levels = 24 bits
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	t0 := time.Now()
	_, err := Solve(Request{Model: m, Batch: 2, Levels: unit(2), Ctx: ctx, Method: MethodBrute})
	elapsed := time.Since(t0)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("brute Solve = %v, want context.Canceled", err)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v, want well under 5s", elapsed)
	}
}

// TestFrontierCap: the exact graph DP's frontier is capped at a fixed
// maxGraphFrontier open layers. Every entry point that runs or scores
// the exact objective refuses a wider graph up front with ErrTooWide
// (wrapping ErrPlan), a narrower one plans, and only the beam search
// plans past the cap.
func TestFrontierCap(t *testing.T) {
	ws := unit(1)
	if _, err := Solve(Request{Model: cancelFork(8), Batch: 2, Levels: ws}); err != nil {
		t.Fatalf("8-wide fork under the cap: %v", err)
	}
	wide := cancelFork(maxGraphFrontier + 2)
	base := []Assignment{make(Assignment, len(wide.Layers))}
	for name, run := range map[string]func() error{
		"Solve": func() error {
			_, err := Solve(Request{Model: wide, Batch: 2, Levels: ws})
			return err
		},
		"brute Solve": func() error {
			_, err := Solve(Request{Model: wide, Batch: 2, Levels: ws, Method: MethodBrute})
			return err
		},
		"Evaluate": func() error {
			_, err := Evaluate(wide, 2, base, ws)
			return err
		},
		"NewSweep": func() error {
			_, err := NewSweep(wide, 2, base, []FreeVar{{Level: 0, Layer: 0}}, ws)
			return err
		},
		"DataParallel": func() error {
			_, err := DataParallel(wide, 2, ws)
			return err
		},
	} {
		if err := run(); !errors.Is(err, ErrTooWide) || !errors.Is(err, ErrPlan) {
			t.Errorf("%s on a %d-wide fork = %v, want ErrTooWide wrapping ErrPlan", name, maxGraphFrontier+2, err)
		}
	}
	if _, err := Solve(Request{Model: wide, Batch: 2, Levels: ws, Method: MethodBeam}); err != nil {
		t.Errorf("beam Solve past the cap: %v", err)
	}
}
