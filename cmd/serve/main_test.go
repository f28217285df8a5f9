package main

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"micronets/internal/arch"
	"micronets/internal/zoo"
)

func searchedSpec(name string, width int) *arch.Spec {
	return &arch.Spec{
		Name: name, Task: "kws", Source: "search",
		InputH: 49, InputW: 10, InputC: 1, NumClasses: 12,
		Blocks: []arch.Block{
			{Kind: arch.Conv, KH: 10, KW: 4, OutC: width, Stride: 1},
			{Kind: arch.DSBlock, KH: 3, KW: 3, OutC: width, Stride: 2},
			{Kind: arch.AvgPool, KH: 25, KW: 5, Stride: 1},
			{Kind: arch.Dense, OutC: 12},
		},
	}
}

func writeSpecs(t *testing.T, name string, specs ...*arch.Spec) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	fh, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := zoo.WriteSpecFile(fh, &zoo.SpecFile{Specs: specs}); err != nil {
		t.Fatal(err)
	}
	if err := fh.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestReadSpecFilesRefusesRedefinitions: a name two -specs files define
// is refused with both files named, instead of the later file silently
// replacing the earlier spec; so is a file spec under a catalogue name.
func TestReadSpecFilesRefusesRedefinitions(t *testing.T) {
	a := writeSpecs(t, "a.json", searchedSpec("NAS-kws-S-001", 32), searchedSpec("NAS-kws-S-002", 48))
	b := writeSpecs(t, "b.json", searchedSpec("NAS-kws-S-002", 64))
	_, err := readSpecFiles([]string{a, b})
	if err == nil || !strings.Contains(err.Error(), a) || !strings.Contains(err.Error(), b) {
		t.Fatalf("two files defining NAS-kws-S-002: err %v, want one naming %s and %s", err, a, b)
	}

	builtin := writeSpecs(t, "builtin.json", searchedSpec("DSCNN-S", 32))
	if _, err := readSpecFiles([]string{a, builtin}); err == nil {
		t.Fatal("a file spec named DSCNN-S was accepted")
	}

	c := writeSpecs(t, "c.json", searchedSpec("NAS-kws-S-003", 64))
	specs, err := readSpecFiles([]string{a, c})
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, s := range specs {
		names = append(names, s.Name)
	}
	if want := []string{"NAS-kws-S-001", "NAS-kws-S-002", "NAS-kws-S-003"}; !reflect.DeepEqual(names, want) {
		t.Fatalf("read %v, want %v in file order", names, want)
	}
}

// TestResolveFileSpecsFirst: a curated -models list takes listed names
// from the spec files and leaves the rest to the catalogue boot; a list
// of file specs only boots an empty (not the whole) catalogue.
func TestResolveFileSpecsFirst(t *testing.T) {
	files := []*arch.Spec{searchedSpec("NAS-a", 32), searchedSpec("NAS-b", 32)}
	boot, listed := resolve([]string{"DSCNN-S", "NAS-b", "MicroNet-KWS-S"}, files)
	if !reflect.DeepEqual(boot, []string{"DSCNN-S", "MicroNet-KWS-S"}) {
		t.Fatalf("boot %v", boot)
	}
	if len(listed) != 1 || listed[0] != files[1] {
		t.Fatalf("listed %v, want only NAS-b", listed)
	}
	boot, listed = resolve([]string{"NAS-a"}, files)
	if boot == nil || len(boot) != 0 || len(listed) != 1 {
		t.Fatalf("file-only list: boot %#v listed %v, want a non-nil empty boot", boot, listed)
	}
}
