// Command deploy lowers a zoo model to the int8 runtime, plans its memory,
// and reports the Figure 2-style memory map plus modeled latency and energy
// on a chosen MCU.
//
// Usage:
//
//	deploy -model MicroNet-KWS-M -device M [-bits 8] [-save model.mnet]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"micronets/internal/graph"
	"micronets/internal/mcu"
	"micronets/internal/serve"
	"micronets/internal/zoo"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("deploy: ")
	model := flag.String("model", "MicroNet-KWS-M", "zoo model name")
	device := flag.String("device", "M", "device class: S, M or L")
	bits := flag.Int("bits", 8, "weight/activation bit width (8 or 4)")
	save := flag.String("save", "", "optional path to write the serialized .mnet model")
	flag.Parse()

	spec, err := zoo.Spec(*model)
	if err != nil {
		log.Fatal(err)
	}
	dev, err := mcu.ByClass(*device)
	if err != nil {
		log.Fatal(err)
	}
	m, err := serve.ModelOptions{WeightBits: *bits, ActBits: *bits, AppendSoftmax: true}.Lower(spec)
	if err != nil {
		log.Fatal(err)
	}
	dep, err := mcu.Deploy(m, dev)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s on %s\n\n", spec.Name, dev)
	fmt.Print(dep.Report)
	fmt.Printf("\n  Ops: %.1f Mops   Latency: %.3f s   Power: %.0f mW   Energy: %.1f mJ\n",
		float64(dep.Model.TotalOps())/1e6, dep.LatencySeconds, dep.ActivePowerMW, dep.EnergyMJ)
	if dep.FitsErr != nil {
		fmt.Printf("  NOT DEPLOYABLE: %v\n", dep.FitsErr)
	} else {
		fmt.Printf("  Fits %s: yes\n", dev.Name)
	}
	if *save != "" {
		f, err := os.Create(*save)
		if err != nil {
			log.Fatal(err)
		}
		if err := graph.Save(f, dep.Model); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  Serialized model: %s (%d bytes)\n", *save, graph.SerializedSize(dep.Model))
	}
}
