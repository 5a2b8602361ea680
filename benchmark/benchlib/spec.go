package benchlib

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// Metric is one metric declaration in BENCHMARK.json. Bound is the share of
// the parent's median by which an end-to-end metric may worsen; per-layer
// metrics carry none.
type Metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// Spec is BENCHMARK.json: the contract both binaries emit against.
type Spec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []Metric `json:"end_to_end"`
	PerLayer []Metric `json:"per_layer"`
}

// LoadSpec reads BENCHMARK.json.
func LoadSpec(path string) (*Spec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s Spec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// Value is one measured metric on the result line.
type Value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Line is the JSON object a run prints as the last line of standard output.
type Line struct {
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]Value `json:"metrics"`
}

// NewLine pairs measured values with the units decls declares, and fails if
// the two sets of names differ: a run must emit exactly what BENCHMARK.json
// names, so a metric cannot silently disappear from either side.
func NewLine(decls []Metric, values map[string]float64) (*Line, error) {
	l := &Line{Metrics: make(map[string]Value, len(decls))}
	for _, d := range decls {
		v, ok := values[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %q is declared in BENCHMARK.json but was not measured", d.Name)
		}
		l.Metrics[d.Name] = Value{Value: v, Unit: d.Unit}
	}
	var extra []string
	for name := range values {
		if _, ok := l.Metrics[name]; !ok {
			extra = append(extra, name)
		}
	}
	if len(extra) > 0 {
		sort.Strings(extra)
		return nil, fmt.Errorf("measured but not declared in BENCHMARK.json: %v", extra)
	}
	return l, nil
}

// Print writes every metric by name and unit in declaration order, then the
// JSON object as the last line.
func (l *Line) Print(decls []Metric) error {
	for _, d := range decls {
		fmt.Printf("%-40s %16.6g %s\n", d.Name, l.Metrics[d.Name].Value, d.Unit)
	}
	raw, err := json.Marshal(l)
	if err != nil {
		return err
	}
	_, err = fmt.Printf("%s\n", raw)
	return err
}
