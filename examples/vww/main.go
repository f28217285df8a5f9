// Visual wake words: reproduce the §6.2 deployability analysis — why
// ProxylessNAS and MSNet need the largest MCU while MicroNets target each
// device — and deploy MicroNet-VWW-2 on its target. To train a small
// person detector on synthetic scenes, run `go run ./cmd/train -task vww`.
package main

import (
	"fmt"
	"log"

	"micronets/internal/experiments"
	"micronets/internal/mcu"
	"micronets/internal/serve"
	"micronets/internal/zoo"
)

func main() {
	log.SetFlags(0)

	fmt.Println("=== VWW deployability across MCUs (Figure 8) ===")
	out, err := experiments.RenderPareto("vww", 42)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(out)

	fmt.Println("=== deploying MicroNet-VWW-2 on its target (small MCU) ===")
	spec, err := zoo.Spec("MicroNet-VWW-2")
	if err != nil {
		log.Fatal(err)
	}
	m, err := serve.ModelOptions{AppendSoftmax: true}.Lower(spec)
	if err != nil {
		log.Fatal(err)
	}
	dep, err := mcu.Deploy(m, mcu.F446RE)
	if err != nil {
		log.Fatal(err)
	}
	if dep.FitsErr != nil {
		log.Fatalf("unexpected: %v", dep.FitsErr)
	}
	fmt.Printf("latency %.3f s, energy %.1f mJ, SRAM %.1f KB\n",
		dep.LatencySeconds, dep.EnergyMJ, float64(dep.Report.ModelSRAM())/1024)
}
