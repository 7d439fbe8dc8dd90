// Training: run *real* hybrid-parallel training. The planner picks a
// parallelism per layer and hierarchy level; this example executes
// actual SGD steps with the tensors physically partitioned across the
// plan's 2^H accelerators exactly as the paper's Figure 1 prescribes at
// each level, then shows that
//
//  1. hybrid training matches single-device training, and
//  2. the elements measured crossing each level meet the paper's
//     communication model (Tables 1-2): equal for the intra-layer
//     reductions at every level, and for the inter-layer conversions
//     between two groups, never above it deeper down.
//
// Run with:
//
//	go run ./examples/training
package main

import (
	"fmt"
	"log"

	hypar "repro"
	"repro/internal/train"
)

func main() {
	// A scaled-down SFC-style network (the paper's all-fc extreme case).
	m := &hypar.Model{
		Name:  "sfc-mini",
		Input: hypar.Input{H: 1, W: 1, C: 64},
		Layers: []hypar.Layer{
			hypar.FCLayer("fc1", 128),
			hypar.FCLayer("fc2", 128),
			{Name: "fc3", Type: hypar.FC, Cout: 10},
		},
	}
	for _, levels := range []int{1, 2} {
		if err := run(m, levels); err != nil {
			log.Fatal(err)
		}
	}
}

// run plans m over 2^levels accelerators, trains it for a few steps
// beside a single device, and compares measured with modelled traffic.
func run(m *hypar.Model, levels int) error {
	const batch, steps = 64, 5
	cfg := hypar.DefaultConfig()
	cfg.Batch = batch
	cfg.Levels = levels
	plan, err := hypar.NewPlan(m, hypar.HyPar, cfg)
	if err != nil {
		return err
	}
	fmt.Printf("== %d accelerators (Levels = %d), planned parallelism:\n", plan.NumAccelerators(), levels)
	for h, assign := range plan.Levels {
		fmt.Printf("  level %d:", h)
		for l, layer := range m.Layers {
			fmt.Printf("  %s %v", layer.Name, assign[l])
		}
		fmt.Println()
	}

	// Matched single-device and hybrid executors.
	ref, err := train.NewNetwork(m, batch, 1)
	if err != nil {
		return err
	}
	hybrid, err := train.NewHierarchicalFC(ref, plan)
	if err != nil {
		return err
	}
	x, labels, err := train.SyntheticBatch(m, batch, 10, 2)
	if err != nil {
		return err
	}

	xNHWC := &train.Tensor{Shape: []int{batch, 1, 1, 64}, Data: x.Data}
	fmt.Println("\nstep   loss(single)   loss(hybrid)   max|ΔW|")
	for step := 1; step <= steps; step++ {
		refLoss, err := ref.TrainStep(xNHWC, labels, 0.2)
		if err != nil {
			return err
		}
		hybridLoss, err := hybrid.Step(x, labels, 0.2)
		if err != nil {
			return err
		}
		var worst float64
		for l := 0; l < ref.Layers(); l++ {
			full, err := hybrid.FullWeights(l)
			if err != nil {
				return err
			}
			d, err := train.MaxAbsDiff(ref.Weights(l), full)
			if err != nil {
				return err
			}
			worst = max(worst, d)
		}
		fmt.Printf("%4d   %12.6f   %12.6f   %8.2e\n", step, refLoss, hybridLoss, worst)
	}

	// One step's traffic per group pair and direction, against the plan.
	fmt.Println("\nelements per group pair and direction, last step:")
	fmt.Println("level  class       measured  modelled")
	sum := func(xs []float64) (t float64) {
		for _, v := range xs {
			t += v
		}
		return t
	}
	for h, got := range hybrid.Traffic() {
		want := plan.Details[h]
		for _, c := range []struct {
			name      string
			got, want []float64
		}{
			{"fwd-psum", got.IntraFwd, want.IntraFwd},
			{"grad-psum", got.IntraGrad, want.IntraGrad},
			{"interF", got.InterF, want.InterF},
			{"interE", got.InterE, want.InterE},
		} {
			fmt.Printf("%5d  %-10s %9.0f %9.0f\n", h, c.name, sum(c.got), sum(c.want))
		}
	}
	fmt.Printf("\ntotal remote traffic: %.1f KB per step\n\n", hybrid.TotalRemote()*4/1024)
	return nil
}
