package zoo

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"

	"micronets/internal/arch"
)

// The zoo's built-in catalogue is the paper's fixed model set; searches
// discover new architectures at runtime and need to publish them under
// stable names so every consumer of the zoo (the serving registry,
// cmd/serve, the experiment harness) can use them like any Table 5 model.
// Registered entries live alongside the built-ins: Catalog, Names, Get,
// ByTask and ServableNames all see them.

var (
	regMu      sync.RWMutex
	registered = map[string]*Entry{}
)

// Register publishes a dynamic entry (e.g. a NAS frontier winner) into
// the catalogue. The spec must be present and analyzable, and the name —
// which must match the spec name — must not collide with a built-in
// model. Re-registering the same name overwrites the previous dynamic
// entry (a re-run search replaces its own exports).
func Register(e *Entry) error { return registerAll(e) }

// registerAll checks every entry before storing any, so a batch either
// publishes whole or leaves the catalogue untouched.
func registerAll(es ...*Entry) error {
	builtins := builtinCatalog()
	for _, e := range es {
		if e == nil || e.Spec == nil {
			return fmt.Errorf("zoo: register needs an entry with a spec")
		}
		if e.Name == "" || e.Name != e.Spec.Name {
			return fmt.Errorf("zoo: entry name %q must match spec name %q", e.Name, e.Spec.Name)
		}
		if _, err := e.Spec.Analyze(); err != nil {
			return fmt.Errorf("zoo: register %s: %w", e.Name, err)
		}
		if _, builtin := builtins[e.Name]; builtin {
			return fmt.Errorf("zoo: %q collides with a built-in catalogue model", e.Name)
		}
	}
	regMu.Lock()
	for _, e := range es {
		registered[e.Name] = e
	}
	regMu.Unlock()
	return nil
}

// Unregister removes a dynamic entry; unknown names are a no-op. Tests
// use it to keep the process-wide catalogue clean.
func Unregister(name string) {
	regMu.Lock()
	delete(registered, name)
	regMu.Unlock()
}

// RegisteredNames lists the dynamic entries currently published.
func RegisteredNames() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	names := make([]string, 0, len(registered))
	for n := range registered {
		names = append(names, n)
	}
	return names
}

// mergeRegistered adds the dynamic entries into a catalogue map.
func mergeRegistered(m map[string]*Entry) map[string]*Entry {
	regMu.RLock()
	defer regMu.RUnlock()
	for n, e := range registered {
		m[n] = e
	}
	return m
}

// SpecFile is the on-disk format for exported architectures — the bridge
// from a finished search run to a serving process: cmd/search writes one,
// cmd/serve -specs loads it and registers every spec at boot.
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

// ReadSpecFile parses a SpecFile and validates every spec.
func ReadSpecFile(r io.Reader) (*SpecFile, error) {
	var f SpecFile
	if err := json.NewDecoder(r).Decode(&f); err != nil {
		return nil, fmt.Errorf("zoo: spec file: %w", err)
	}
	for _, s := range f.Specs {
		if s == nil || s.Name == "" {
			return nil, fmt.Errorf("zoo: spec file contains an unnamed spec")
		}
		if _, err := s.Analyze(); err != nil {
			return nil, fmt.Errorf("zoo: spec file: %w", err)
		}
	}
	return &f, nil
}

// RegisterSpecFile loads a spec file from disk and registers every spec,
// returning the registered names in file order. It is all-or-nothing: if
// any spec fails Register's checks, none of the file is registered.
func RegisterSpecFile(path string) ([]string, error) {
	fh, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer fh.Close()
	f, err := ReadSpecFile(fh)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	names := make([]string, len(f.Specs))
	entries := make([]*Entry, len(f.Specs))
	for i, s := range f.Specs {
		names[i] = s.Name
		entries[i] = &Entry{Name: s.Name, Task: s.Task, Spec: s, Notes: f.Notes[s.Name]}
	}
	if err := registerAll(entries...); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return names, nil
}
