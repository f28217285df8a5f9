package search

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"micronets/internal/core"
	"micronets/internal/mcu"
	"micronets/internal/nn"
)

// dnasDigestFile holds the sha256 of a 10-step KWS DNAS warm start at
// seed 1. The vector float kernels and the recycling autograd tape each
// reproduced the digest from before them bit for bit. It was regenerated
// once, when each DNAS phase stopped applying the other phase's
// gradients (a change of what the search computes, not of how); do not
// regenerate it to make a numerics change pass.
const dnasDigestFile = "testdata/dnas_warm_start.sha256"

// dnasDigest runs the nas_sweep warm start (kws space, F746ZG budgets)
// and hashes every supernet weight and architecture logit, the
// discretized spec and the final loss and penalty.
func dnasDigest(t *testing.T) string {
	t.Helper()
	space, err := core.SpaceForTask("kws")
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Task: "kws", Device: mcu.F746ZG, Budgets: DeviceBudgets(mcu.F746ZG), Seed: 1, DNASSteps: 10}
	sn, res, err := runDNAS(cfg, space)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	var word [4]byte
	hashParams := func(ps []*nn.Param) {
		for _, p := range ps {
			fmt.Fprintf(h, "%s %v\n", p.Name, p.V.Value.Shape)
			for _, v := range p.V.Value.Data {
				binary.LittleEndian.PutUint32(word[:], math.Float32bits(v))
				h.Write(word[:])
			}
		}
	}
	hashParams(sn.WeightParams())
	hashParams(sn.ArchParams())
	fmt.Fprintf(h, "%s\n%08x %08x\n", res.Spec.Fingerprint(),
		math.Float32bits(res.FinalLoss), math.Float32bits(res.FinalPenalty))
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestDNASWarmStartDigest pins the DNAS warm start bit for bit, at one
// and at two cores: the float kernels under autograd may get faster or
// split across cores, but never change a result. Go fuses float
// multiply-adds on arm64 and other FMA targets, so the pinned digest
// holds on amd64 only.
func TestDNASWarmStartDigest(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("float multiply-adds may fuse on %s; the digest is amd64's", runtime.GOARCH)
	}
	raw, err := os.ReadFile(filepath.FromSlash(dnasDigestFile))
	if err != nil {
		t.Fatal(err)
	}
	want := strings.TrimSpace(string(raw))
	for _, procs := range []int{1, 2} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			if got := dnasDigest(t); got != want {
				t.Fatalf("DNAS warm start digest %s, want %s (%s)", got, want, dnasDigestFile)
			}
		})
	}
}
