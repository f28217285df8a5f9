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
// when each DNAS phase stopped applying the other phase's gradients (a
// change of what the search computes, not of how), and when the
// supernet's parameters took arch.Build's layer names (dnasValuesFile
// held); do not regenerate it to make a numerics change pass.
const dnasDigestFile = "testdata/dnas_warm_start.sha256"

// dnasValuesFile holds the sha256 of the same warm start hashed without
// parameter names: each weight's and logit's shape and values in
// WeightParams then ArchParams order, the discretized spec and the final
// loss and penalty. Renaming the supernet's layers moves dnasDigestFile
// but never this one; do not regenerate it to make a refactor pass.
const dnasValuesFile = "testdata/dnas_warm_start_values.sha256"

// dnasDigest runs the nas_sweep warm start (kws space, F746ZG budgets)
// and hashes every supernet weight and architecture logit, the
// discretized spec and the final loss and penalty: named with the
// parameter names, values without them.
func dnasDigest(t *testing.T) (named, values string) {
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
	digest := func(withNames bool) string {
		h := sha256.New()
		var word [4]byte
		for _, ps := range [][]*nn.Param{sn.WeightParams(), sn.ArchParams()} {
			for _, p := range ps {
				if withNames {
					fmt.Fprintf(h, "%s ", p.Name)
				}
				fmt.Fprintf(h, "%v\n", p.V.Value.Shape)
				for _, v := range p.V.Value.Data {
					binary.LittleEndian.PutUint32(word[:], math.Float32bits(v))
					h.Write(word[:])
				}
			}
		}
		fmt.Fprintf(h, "%s\n%08x %08x\n", res.Spec.Fingerprint(),
			math.Float32bits(res.FinalLoss), math.Float32bits(res.FinalPenalty))
		return fmt.Sprintf("%x", h.Sum(nil))
	}
	return digest(true), digest(false)
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
	read := func(file string) string {
		raw, err := os.ReadFile(filepath.FromSlash(file))
		if err != nil {
			t.Fatal(err)
		}
		return strings.TrimSpace(string(raw))
	}
	wantNamed, wantValues := read(dnasDigestFile), read(dnasValuesFile)
	for _, procs := range []int{1, 2} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			named, values := dnasDigest(t)
			if values != wantValues {
				t.Errorf("DNAS warm start values digest %s, want %s (%s)", values, wantValues, dnasValuesFile)
			}
			if named != wantNamed {
				t.Errorf("DNAS warm start digest %s, want %s (%s)", named, wantNamed, dnasDigestFile)
			}
		})
	}
}
