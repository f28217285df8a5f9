package zoo

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"micronets/internal/arch"
)

// SpecFile is the on-disk format for exported architectures — the bridge
// from a finished search run to a serving process: cmd/search writes one,
// and cmd/serve -specs reads it at boot. Its specs are served by the
// server that read them; they never join the catalogue.
type SpecFile struct {
	// GeneratedBy records provenance (tool and parameters).
	GeneratedBy string `json:"generated_by,omitempty"`
	// Specs are complete architectures; block kinds serialize by name.
	Specs []*arch.Spec `json:"specs"`
	// Notes carries per-spec annotations keyed by spec name (e.g. the
	// search metrics a frontier point was selected on).
	Notes map[string]string `json:"notes,omitempty"`
}

// WriteSpecFile serializes a SpecFile as indented JSON.
func WriteSpecFile(w io.Writer, f *SpecFile) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(f)
}

// ReadSpecFile parses a SpecFile and validates every spec. The file is
// one JSON object: bytes other than whitespace after it are refused, and
// so are two specs with one name, which a name lookup could not tell
// apart.
func ReadSpecFile(r io.Reader) (*SpecFile, error) {
	var f SpecFile
	dec := json.NewDecoder(r)
	if err := dec.Decode(&f); err != nil {
		return nil, fmt.Errorf("zoo: spec file: %w", err)
	}
	if _, tail := dec.Token(); tail != io.EOF {
		return nil, fmt.Errorf("zoo: spec file: unexpected data after the JSON object")
	}
	seen := make(map[string]bool, len(f.Specs))
	for _, s := range f.Specs {
		if s == nil || s.Name == "" {
			return nil, fmt.Errorf("zoo: spec file contains an unnamed spec")
		}
		if seen[s.Name] {
			return nil, fmt.Errorf("zoo: spec file names %q twice", s.Name)
		}
		seen[s.Name] = true
		if _, err := s.Analyze(); err != nil {
			return nil, fmt.Errorf("zoo: spec file: %w", err)
		}
	}
	return &f, nil
}

// OpenSpecFile reads the spec file at path with ReadSpecFile's checks and
// also refuses a spec that takes a catalogue model's name: the catalogue
// is the paper's fixed set, and a file cannot redefine one of its models.
func OpenSpecFile(path string) (*SpecFile, error) {
	fh, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer fh.Close()
	f, err := ReadSpecFile(fh)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	cat := Catalog()
	for _, s := range f.Specs {
		if _, builtin := cat[s.Name]; builtin {
			return nil, fmt.Errorf("%s: zoo: %q collides with a built-in catalogue model", path, s.Name)
		}
	}
	return f, nil
}
