// Explore: sweep a slice of the parallelism space the way the paper's
// Figure 9 does for Lenet-c — fix two hierarchy levels at HyPar's
// optimum, enumerate all 256 settings of the other two, simulate each,
// and show where HyPar's choice lands relative to the exhaustive peak.
//
// Run with:
//
//	go run ./examples/explore
package main

import (
	"fmt"
	"log"
	"sort"

	hypar "repro"
	"repro/internal/experiments"
)

func main() {
	cfg := hypar.DefaultConfig()
	_, ex, err := experiments.NewSession(cfg).Fig9()
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("explored %d points of the Lenet-c parallelism space\n", len(ex.Points))
	fmt.Printf("peak:  H1=%s H4=%s gain %.3fx vs Data Parallelism\n",
		ex.Peak.Labels["H1"], ex.Peak.Labels["H4"], ex.Peak.Gain)
	fmt.Printf("HyPar: H1=%s H4=%s gain %.3fx\n\n",
		ex.HyPar.Labels["H1"], ex.HyPar.Labels["H4"], ex.HyPar.Gain)

	// Distribution of the space: best and worst five points.
	pts := make([]experiments.ExplorePoint, len(ex.Points))
	copy(pts, ex.Points)
	sort.Slice(pts, func(i, j int) bool { return pts[i].Gain > pts[j].Gain })
	fmt.Println("best five points:")
	for _, p := range pts[:5] {
		fmt.Printf("  H1=%s H4=%s  %.3fx\n", p.Labels["H1"], p.Labels["H4"], p.Gain)
	}
	fmt.Println("worst five points:")
	for _, p := range pts[len(pts)-5:] {
		fmt.Printf("  H1=%s H4=%s  %.3fx\n", p.Labels["H1"], p.Labels["H4"], p.Gain)
	}
}
