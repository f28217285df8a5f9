package search

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"micronets/internal/arch"
	"micronets/internal/core"
	"micronets/internal/graph"
)

// trainerDigestFile holds the sha256 of trainerDigest. It was generated
// while the training loop, the quick recipes and the float metrics still
// lived in their own package and Export scored the int8 model with its
// own loops; do not regenerate it to make a refactor pass.
const trainerDigestFile = "testdata/trainer_digest.sha256"

// trainerDigestSpec is a small model of each task: KWS and AD from the
// task's search space, VWW one inverted-bottleneck literal sized for the
// trainer's 50x50 scenes.
func trainerDigestSpec(t *testing.T, task string) *arch.Spec {
	t.Helper()
	if task == "vww" {
		return &arch.Spec{
			Name: "digest-vww", Task: "vww", InputH: 50, InputW: 50, InputC: 1, NumClasses: 2,
			Blocks: []arch.Block{
				{Kind: arch.Conv, KH: 3, KW: 3, OutC: 8, Stride: 2},
				{Kind: arch.IBN, KH: 3, KW: 3, Expand: 16, OutC: 8, Stride: 2},
				{Kind: arch.GlobalPool},
				{Kind: arch.Dense, OutC: 2},
			},
		}
	}
	space, err := core.SpaceForTask(task)
	if err != nil {
		t.Fatal(err)
	}
	widths := []int{8, 12, 12}
	if task == "ad" {
		widths = []int{4, 8, 8, 8}
	}
	return space.Build("digest-"+task, widths)
}

// trainerDigest trains each task's model for 4 steps at seed 3, with QAT
// off and on, and hashes per case Train's metric bits, every trained
// parameter's name, shape and values, Export's int8 metric bits and the
// sha256 of the exported model's graph.Save bytes.
func trainerDigest(t *testing.T) string {
	t.Helper()
	h := sha256.New()
	var word [8]byte
	for _, task := range []string{"kws", "vww", "ad"} {
		tr, err := NewTrainer(task, 2)
		if err != nil {
			t.Fatal(err)
		}
		spec := trainerDigestSpec(t, task)
		for _, qat := range []bool{false, true} {
			score, model, err := tr.Train(spec, 4, 3, qat)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(h, "%s qat=%v %016x\n", task, qat, math.Float64bits(score))
			for _, p := range model.Params() {
				fmt.Fprintf(h, "%s %v\n", p.Name, p.V.Value.Shape)
				for _, v := range p.V.Value.Data {
					binary.LittleEndian.PutUint32(word[:4], math.Float32bits(v))
					h.Write(word[:4])
				}
			}
			gm, score8, err := tr.Export(spec, model)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := graph.Save(&buf, gm); err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(h, "int8 %016x %x\n", math.Float64bits(score8), sha256.Sum256(buf.Bytes()))
			t.Logf("%s qat=%v: float %.4f, int8 %.4f", task, qat, score, score8)
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestTrainerDigest pins every number the finalist trainer produces — the
// float metric, the trained weights, the int8 metric and the exported
// model — for each task with and without QAT, at one and at two cores.
// Go fuses float multiply-adds on FMA targets, so the pinned digest is
// amd64's.
func TestTrainerDigest(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("float multiply-adds may fuse on %s; the digest is amd64's", runtime.GOARCH)
	}
	raw, err := os.ReadFile(filepath.FromSlash(trainerDigestFile))
	if err != nil {
		t.Fatal(err)
	}
	want := strings.TrimSpace(string(raw))
	for _, procs := range []int{1, 2} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			if got := trainerDigest(t); got != want {
				t.Errorf("trainer digest %s, want %s (%s)", got, want, trainerDigestFile)
			}
		})
	}
}
