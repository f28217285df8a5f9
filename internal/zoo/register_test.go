package zoo

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"micronets/internal/arch"
)

func nasSpec(name string) *arch.Spec {
	return &arch.Spec{
		Name: name, Task: "kws", Source: "search",
		InputH: 49, InputW: 10, InputC: 1, NumClasses: 12,
		Blocks: []arch.Block{
			{Kind: arch.Conv, KH: 10, KW: 4, OutC: 32, Stride: 1},
			{Kind: arch.DSBlock, KH: 3, KW: 3, OutC: 32, Stride: 2},
			{Kind: arch.AvgPool, KH: 25, KW: 5, Stride: 1},
			{Kind: arch.Dense, OutC: 12},
		},
	}
}

func TestRegisterVisibleEverywhere(t *testing.T) {
	const name = "NAS-test-register"
	t.Cleanup(func() { Unregister(name) })
	if err := Register(&Entry{Name: name, Task: "kws", Spec: nasSpec(name)}); err != nil {
		t.Fatal(err)
	}
	if _, err := Get(name); err != nil {
		t.Fatalf("Get after Register: %v", err)
	}
	found := false
	for _, n := range ServableNames() {
		if n == name {
			found = true
		}
	}
	if !found {
		t.Fatal("registered model missing from ServableNames")
	}
	// Collisions with built-ins and name mismatches must be rejected.
	if err := Register(&Entry{Name: "MicroNet-KWS-S", Task: "kws", Spec: nasSpec("MicroNet-KWS-S")}); err == nil {
		t.Fatal("built-in collision must error")
	}
	if err := Register(&Entry{Name: "other", Task: "kws", Spec: nasSpec(name)}); err == nil {
		t.Fatal("name/spec mismatch must error")
	}
}

// TestRegisterSpecFileAllOrNothing: a file whose second spec collides
// with a built-in must fail as a whole, leaving its valid first spec
// unregistered.
func TestRegisterSpecFileAllOrNothing(t *testing.T) {
	const ok = "NAS-test-all-or-nothing"
	t.Cleanup(func() { Unregister(ok) })
	path := filepath.Join(t.TempDir(), "frontier.json")
	var buf bytes.Buffer
	if err := WriteSpecFile(&buf, &SpecFile{Specs: []*arch.Spec{nasSpec(ok), nasSpec("DSCNN-S")}}); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if names, err := RegisterSpecFile(path); err == nil {
		t.Fatalf("a file colliding with a built-in registered %v", names)
	}
	if _, err := Get(ok); err == nil {
		t.Fatalf("%s stayed registered after its file was rejected", ok)
	}
}

func TestSpecFileRoundTrip(t *testing.T) {
	f := &SpecFile{
		GeneratedBy: "test",
		Specs:       []*arch.Spec{nasSpec("NAS-test-roundtrip")},
		Notes:       map[string]string{"NAS-test-roundtrip": "frontier point"},
	}
	var buf bytes.Buffer
	if err := WriteSpecFile(&buf, f); err != nil {
		t.Fatal(err)
	}
	// Block kinds must serialize by name, not by integer constant.
	if !bytes.Contains(buf.Bytes(), []byte(`"DSBlock"`)) {
		t.Fatalf("spec file not human-readable: %s", buf.String())
	}
	got, err := ReadSpecFile(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Specs[0], f.Specs[0]) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got.Specs[0], f.Specs[0])
	}
	if got.Notes["NAS-test-roundtrip"] == "" {
		t.Fatal("notes lost in round trip")
	}
}

// TestReadSpecFileRejectsTrailingDataAndDuplicates: a spec file is one
// JSON object, and each of its names is one spec, so trailing bytes and
// a repeated name are refused (registering a repeated name would keep
// only its last spec while reporting the name twice).
func TestReadSpecFileRejectsTrailingDataAndDuplicates(t *testing.T) {
	var one bytes.Buffer
	if err := WriteSpecFile(&one, &SpecFile{Specs: []*arch.Spec{nasSpec("NAS-test-read")}}); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadSpecFile(bytes.NewReader(append(one.Bytes(), " \n\t"...))); err != nil {
		t.Fatalf("trailing whitespace must be accepted: %v", err)
	}
	for _, tail := range []string{" trailing garbage {", "{}", `{"specs":[]}`, "]"} {
		if _, err := ReadSpecFile(bytes.NewReader(append(bytes.Clone(one.Bytes()), tail...))); err == nil {
			t.Errorf("spec file followed by %q parsed with a nil error", tail)
		}
	}

	const dup = "NAS-test-duplicate"
	t.Cleanup(func() { Unregister(dup) })
	first, second := nasSpec(dup), nasSpec(dup)
	second.Blocks[0].OutC = 16
	var buf bytes.Buffer
	if err := WriteSpecFile(&buf, &SpecFile{Specs: []*arch.Spec{first, second}}); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadSpecFile(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("a spec file naming one spec twice parsed with a nil error")
	}
	path := filepath.Join(t.TempDir(), "dup.json")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if names, err := RegisterSpecFile(path); err == nil {
		t.Fatalf("a spec file naming one spec twice registered %v", names)
	}
	if _, err := Get(dup); err == nil {
		t.Fatalf("%s registered from a rejected file", dup)
	}
}
