// Anomaly detection: check the real-time uptime constraint that drives
// the paper's AD latency budget (§5.2.3) for the zoo's MicroNet-AD
// models. To train a machine-ID classifier under the §4.3
// self-supervised protocol on synthetic machine sounds and score it by
// AUC in float and int8, run `go run ./cmd/train -task ad`.
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

	// Real-time constraint: inference must finish within the 640 ms stride
	// between successive spectrogram images (§5.2.3).
	fmt.Println("uptime check for the zoo AD models:")
	for _, name := range []string{"MicroNet-AD-S", "MicroNet-AD-M", "MicroNet-AD-L"} {
		zspec, err := zoo.Spec(name)
		if err != nil {
			log.Fatal(err)
		}
		m, err := serve.ModelOptions{AppendSoftmax: true}.Lower(zspec)
		if err != nil {
			log.Fatal(err)
		}
		dep, err := mcu.Deploy(m, mcu.F767ZI)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-14s latency %.3f s -> uptime %.1f%% of the 640 ms stride (real-time: %v)\n",
			name, dep.LatencySeconds, dep.LatencySeconds/0.640*100, dep.LatencySeconds < 0.640)
	}
}
