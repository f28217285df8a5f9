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

// TestOpenSpecFileRefusesCatalogueNames: a file whose second spec takes
// a catalogue model's name fails as a whole, so no reader gets its valid
// first spec either; a file of new names opens.
func TestOpenSpecFileRefusesCatalogueNames(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, specs ...*arch.Spec) string {
		var buf bytes.Buffer
		if err := WriteSpecFile(&buf, &SpecFile{Specs: specs}); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	if f, err := OpenSpecFile(write("collides.json", nasSpec("NAS-test-ok"), nasSpec("DSCNN-S"))); err == nil {
		t.Fatalf("a file colliding with a built-in opened with %d specs", len(f.Specs))
	}
	f, err := OpenSpecFile(write("ok.json", nasSpec("NAS-test-ok")))
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Specs) != 1 || f.Specs[0].Name != "NAS-test-ok" {
		t.Fatalf("opened %+v", f.Specs)
	}
	if _, err := Get("NAS-test-ok"); err == nil {
		t.Fatal("opening a spec file added to the catalogue")
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
// a repeated name are refused (a load by name could not tell the two
// specs apart).
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
	if f, err := OpenSpecFile(path); err == nil {
		t.Fatalf("a spec file naming one spec twice opened with %d specs", len(f.Specs))
	}
}
