// Quickstart: load a MicroNet from the zoo, lower it to the int8 runtime,
// deploy it on each simulated MCU, and print the memory map, latency and
// energy — the 30-second tour of the zoo, serve.ModelOptions.Lower and
// mcu.Deploy.
package main

import (
	"fmt"
	"log"

	"micronets/internal/mcu"
	"micronets/internal/serve"
	"micronets/internal/zoo"
)

func main() {
	log.SetFlags(0)
	spec, err := zoo.Spec("MicroNet-KWS-S")
	if err != nil {
		log.Fatal(err)
	}
	m, err := serve.ModelOptions{AppendSoftmax: true}.Lower(spec)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(spec)
	fmt.Println()

	for _, dev := range []*mcu.Device{mcu.F446RE, mcu.F746ZG, mcu.F767ZI} {
		dep, err := mcu.Deploy(m, dev)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s:\n", dev)
		if dep.FitsErr != nil {
			fmt.Printf("  not deployable: %v\n\n", dep.FitsErr)
			continue
		}
		fmt.Printf("  model SRAM %.1f KB, model flash %.1f KB\n",
			float64(dep.Report.ModelSRAM())/1024, float64(dep.Report.ModelFlash())/1024)
		fmt.Printf("  latency %.3f s, power %.0f mW, energy %.1f mJ/inference\n\n",
			dep.LatencySeconds, dep.ActivePowerMW, dep.EnergyMJ)
	}

	// Side-by-side with the paper's published Table 4 numbers.
	e, err := zoo.Get("MicroNet-KWS-S")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("paper reports: %.1f%% accuracy, %.3f s on the medium MCU, %.0f KB flash\n",
		e.Paper.Accuracy, e.Paper.LatM, e.Paper.FlashKB)
}
