package search

import (
	"encoding/json"
	"fmt"
	"os"

	"micronets/internal/arch"
	"micronets/internal/servegraph"
	"micronets/internal/zoo"
)

// ExportName is the name a frontier point exports under: the prefix
// (typically "NAS-<task>-<deviceclass>") plus the trial index.
func ExportName(prefix string, p Point) string {
	return fmt.Sprintf("%s-%03d", prefix, p.Trial)
}

// ExportFrontier builds the spec file of every frontier point under
// ExportName; a server loads it with `cmd/serve -specs`, or its specs
// inline through PublishFrontier. Each exported spec is a copy — the trial log keeps
// the original names — and carries a note summarizing the metrics it was
// selected on, so the server's operator and a human reading the file see
// the same story.
func ExportFrontier(points []Point, prefix, generatedBy string) (*zoo.SpecFile, []string, error) {
	file := &zoo.SpecFile{GeneratedBy: generatedBy, Notes: map[string]string{}}
	var names []string
	for _, p := range points {
		if p.Record == nil || p.Record.Spec == nil {
			return nil, nil, fmt.Errorf("search: frontier point (trial %d) has no spec", p.Trial)
		}
		spec := *p.Record.Spec
		spec.Blocks = append([]arch.Block(nil), p.Record.Spec.Blocks...)
		spec.Name = ExportName(prefix, p)
		spec.Source = "search"
		trained := ""
		if p.Metrics.TrainedAccuracy > 0 {
			trained = fmt.Sprintf(", trained %.2f%%", p.Metrics.TrainedAccuracy)
		}
		note := fmt.Sprintf(
			"Pareto frontier point (source %s): acc-proxy %.2f%%%s, latency %.1f ms, SRAM %.1f KB, flash %.1f KB, %.1f MOps",
			p.Source, p.Metrics.AccuracyProxy, trained, p.Metrics.LatencyS*1e3,
			float64(p.Metrics.TotalSRAMBytes)/1024, float64(p.Metrics.TotalFlashBytes)/1024,
			float64(p.Metrics.Ops)/1e6)
		file.Specs = append(file.Specs, &spec)
		file.Notes[spec.Name] = note
		names = append(names, spec.Name)
	}
	return file, names, nil
}

// WriteSpecFile saves an exported frontier to disk.
func WriteSpecFile(path string, file *zoo.SpecFile) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := zoo.WriteSpecFile(f, file); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ExportCascade turns a searched Pareto frontier into a servable cascade
// graph spec: up to stages points spread across the frontier (always
// including the fastest and the most accurate), ordered fast→slow so
// cheap models gate the expensive ones. Each stage name is the point's
// ExportName — the cascade is meant to be registered on a server that
// loaded the matching frontier export. threshold is the early-exit
// confidence applied to every non-final stage.
func ExportCascade(points []Point, prefix string, threshold float64, stages int) (*servegraph.Spec, error) {
	if len(points) == 0 {
		return nil, fmt.Errorf("search: cannot export a cascade from an empty frontier")
	}
	if stages < 2 {
		stages = 2
	}
	picked := SpreadPoints(points, stages)
	if len(picked) < 2 {
		return nil, fmt.Errorf("search: a cascade needs at least 2 distinct frontier points, have %d", len(picked))
	}
	root := &servegraph.NodeSpec{Kind: servegraph.KindCascade, Name: "cascade", Threshold: threshold}
	for i, p := range picked {
		root.Children = append(root.Children, &servegraph.NodeSpec{
			Kind:  servegraph.KindModel,
			Name:  fmt.Sprintf("stage-%d", i),
			Model: ExportName(prefix, p),
		})
	}
	first, last := picked[0].Metrics, picked[len(picked)-1].Metrics
	return &servegraph.Spec{
		Name: prefix + "-cascade",
		Description: fmt.Sprintf(
			"Searched-frontier cascade: %d stages, gate %.1f ms → final %.1f ms, early-exit confidence %.2f",
			len(picked), first.LatencyS*1e3, last.LatencyS*1e3, threshold),
		Root: root,
	}, nil
}

// WriteCascadeFile saves an exported cascade spec as the JSON body of
// PUT /v2/graphs/{name}.
func WriteCascadeFile(path string, spec *servegraph.Spec) error {
	out, err := json.MarshalIndent(spec, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}
