package zoo_test

import (
	"bytes"
	"testing"

	"micronets/internal/arch"
	"micronets/internal/serve"
	"micronets/internal/tflm"
	"micronets/internal/zoo"
)

// fuzzBytes bounds what FuzzReadSpecFile lowers: analytic params plus the
// peak working set, so the fuzzer never allocates gigabytes.
const fuzzBytes = 1 << 20

// smallEnough reports whether a spec is within fuzzBytes. It trusts
// Analyze's int64 sizes only once every raw dimension is at most 2^10 and
// every layer dimension at most 2^20: under those bounds no product
// Analyze forms can overflow, so a huge spec cannot wrap into a small one.
func smallEnough(s *arch.Spec, a *arch.Analysis) bool {
	const raw, dim = 1 << 10, 1 << 20
	if s.InputH > raw || s.InputW > raw || s.InputC > raw {
		return false
	}
	for _, b := range s.Blocks {
		if b.KH > raw || b.KW > raw || b.OutC > raw || b.Expand > raw || b.Stride > raw {
			return false
		}
	}
	size := a.PeakWorkingSetBytes
	for _, l := range a.Layers {
		for _, d := range []int{l.InH, l.InW, l.InC, l.OutH, l.OutW, l.OutC} {
			if d > dim {
				return false
			}
		}
		if size += l.Params; size > fuzzBytes {
			return false
		}
	}
	return true
}

// FuzzReadSpecFile: every spec a spec file is accepted with (what
// `cmd/serve -specs` and the admin spec_file load read) lowers and
// prepares without a panic, and only a non-deployable one (a transposed
// convolution) fails to prepare.
func FuzzReadSpecFile(f *testing.F) {
	var catalogue bytes.Buffer
	file := &zoo.SpecFile{}
	for _, name := range []string{"MicroNet-KWS-S", "MBNETV2-S", "FC-AE(Baseline)", "Conv-AE"} {
		if e, err := zoo.Get(name); err == nil && e.Spec != nil {
			file.Specs = append(file.Specs, e.Spec)
		}
	}
	if err := zoo.WriteSpecFile(&catalogue, file); err != nil {
		f.Fatal(err)
	}
	f.Add(catalogue.Bytes())
	for _, block := range []string{
		`{"Kind":"Conv2D","KH":3,"KW":3,"OutC":-4}`,
		`{"Kind":"Conv2D","KH":-3,"KW":3,"OutC":4}`,
		`{"Kind":"Conv2D","OutC":4}`,
		`{"Kind":"IBN","OutC":4,"Expand":8}`,
		`{"Kind":"MaxPool","KH":9,"KW":9,"Stride":3}`,
		`{"Kind":"TransposedConv","KH":3,"KW":3,"OutC":2,"Stride":2}`,
	} {
		f.Add([]byte(`{"specs":[{"Name":"fuzz","Task":"kws","InputH":8,"InputW":8,"InputC":1,"NumClasses":4,"Blocks":[` +
			block + `,{"Kind":"GlobalPool"},{"Kind":"Dense","OutC":4}]}]}`))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		file, err := zoo.ReadSpecFile(bytes.NewReader(data))
		if err != nil {
			return
		}
		for _, s := range file.Specs {
			a, err := s.Analyze()
			if err != nil {
				t.Fatalf("ReadSpecFile accepted %s, which does not analyze: %v", s, err)
			}
			if !smallEnough(s, a) {
				continue
			}
			m, err := serve.ModelOptions{AppendSoftmax: true}.Lower(s)
			if err != nil {
				t.Fatalf("%s analyzes but does not lower: %v", s, err)
			}
			if _, err := tflm.Prepare(m); err != nil && a.Deployable {
				t.Fatalf("deployable %s does not prepare: %v", s, err)
			}
		}
	})
}
