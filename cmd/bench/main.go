// Command bench regenerates the paper's tables and figures as text
// reports. Host performance is measured by the BENCHMARK.json harness
// in bench/, and the architecture search runs from cmd/search, not here.
//
// Usage:
//
//	bench                 # run everything
//	bench -exp fig4       # one experiment: table1..table5, fig2..fig11, pareto-ad, div4
package main

import (
	"flag"
	"fmt"
	"log"

	"micronets/internal/experiments"
)

const seed = 42

func main() {
	log.SetFlags(0)
	log.SetPrefix("bench: ")
	exp := flag.String("exp", "all", "experiment id (table1..table5, fig2..fig11, pareto-ad, div4) or 'all'")
	flag.Parse()

	ran := false
	for _, e := range experiments.Experiments() {
		if *exp != "all" && e.ID != *exp {
			continue
		}
		ran = true
		out, err := e.Render(seed)
		if err != nil {
			log.Fatalf("%s: %v", e.ID, err)
		}
		fmt.Printf("=== %s ===\n%s\n", e.ID, out)
	}
	if !ran {
		log.Fatalf("unknown experiment %q", *exp)
	}
}
