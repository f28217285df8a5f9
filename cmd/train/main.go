// Command train trains one model on a task's quick synthetic dataset,
// optionally with QAT, exports it to the int8 runtime and reports the
// float-vs-int8 score and the deployment cost. It is a one-candidate run
// of search.Trainer — the same recipe, data and int8 scoring the search's
// finalist stage uses. The score is top-1 accuracy for kws and vww and
// the §4.3 anomaly AUC for ad.
//
// Usage:
//
//	train -task kws [-steps 200] [-width 16] [-qat] [-device S]
package main

import (
	"flag"
	"fmt"
	"log"

	"micronets/internal/arch"
	"micronets/internal/core"
	"micronets/internal/mcu"
	"micronets/internal/search"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("train: ")
	task := flag.String("task", "kws", "task: kws, vww or ad")
	steps := flag.Int("steps", 200, "training steps")
	width := flag.Int("width", 16, "base channel width of the demo model")
	qat := flag.Bool("qat", true, "quantization-aware training")
	device := flag.String("device", "S", "deployment MCU class")
	seed := flag.Int64("seed", 1, "random seed")
	flag.Parse()

	spec, err := specFor(*task, *width)
	if err != nil {
		log.Fatal(err)
	}
	dev, err := mcu.ByClass(*device)
	if err != nil {
		log.Fatal(err)
	}
	tr, err := search.NewTrainer(*task, *seed)
	if err != nil {
		log.Fatal(err)
	}
	metric := "test accuracy"
	if *task == "ad" {
		metric = "anomaly AUC"
	}
	fmt.Printf("training %s (%d steps, QAT=%v)...\n", spec.Name, *steps, *qat)
	score, model, err := tr.Train(spec, *steps, *seed, *qat)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("float %s: %.1f%%\n", metric, score)
	gm, score8, err := tr.Export(spec, model)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("int8 %s:  %.1f%%\n", metric, score8)

	dep, err := mcu.Deploy(gm, dev)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("deployed on %s: latency %.3f s, energy %.1f mJ, SRAM %.1f KB, flash %.1f KB\n",
		dev.Name, dep.LatencySeconds, dep.EnergyMJ,
		float64(dep.Report.ModelSRAM())/1024, float64(dep.Report.ModelFlash())/1024)
	if dep.FitsErr != nil {
		fmt.Printf("WARNING: %v\n", dep.FitsErr)
	}
}

// specFor returns the demo model for task at base width w. KWS and AD
// come from the task's search space; VWW has none yet, so its model is
// one inverted-bottleneck literal sized for the quick VWW scenes.
func specFor(task string, w int) (*arch.Spec, error) {
	switch task {
	case "kws", "ad":
		space, err := core.SpaceForTask(task)
		if err != nil {
			return nil, err
		}
		widths := []int{w, w + w/2, w + w/2}
		if task == "ad" {
			widths = []int{w / 2, w, w, w}
		}
		return space.Build("train-"+task, widths), nil
	case "vww":
		return &arch.Spec{
			Name: "train-vww", Task: "vww", InputH: 50, InputW: 50, InputC: 1, NumClasses: 2,
			Blocks: []arch.Block{
				{Kind: arch.Conv, KH: 3, KW: 3, OutC: w / 2, Stride: 2},
				{Kind: arch.IBN, KH: 3, KW: 3, Expand: w, OutC: w / 2, Stride: 1},
				{Kind: arch.IBN, KH: 3, KW: 3, Expand: w * 2, OutC: w, Stride: 2},
				{Kind: arch.GlobalPool},
				{Kind: arch.Dense, OutC: 2},
			},
		}, nil
	}
	return nil, fmt.Errorf("unknown task %q (have kws, vww, ad)", task)
}
