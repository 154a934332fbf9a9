package bench

import (
	"encoding/json"
	"fmt"
	"math"
)

// ResultSchema versions the machine-readable output of poseidon-bench;
// bump on any incompatible change to Result/Table/TableRow.
const ResultSchema = "poseidon-bench/v1"

// Result is the machine-readable form of a bench run: the configuration
// and every regenerated figure with full timing distributions.
type Result struct {
	Schema      string   `json:"schema"`
	GeneratedAt string   `json:"generated_at"` // RFC 3339
	GoVersion   string   `json:"go_version"`
	Config      Options  `json:"config"`
	Figures     []*Table `json:"figures"`
}

// Validate checks structural sanity.
func (r *Result) Validate() error {
	if r.Schema != ResultSchema {
		return fmt.Errorf("bench: schema %q, want %q", r.Schema, ResultSchema)
	}
	if r.GeneratedAt == "" || r.GoVersion == "" {
		return fmt.Errorf("bench: missing generated_at/go_version")
	}
	if len(r.Figures) == 0 {
		return fmt.Errorf("bench: no figures")
	}
	for _, fig := range r.Figures {
		if fig == nil || fig.Name == "" {
			return fmt.Errorf("bench: unnamed figure")
		}
		if len(fig.Rows) == 0 {
			return fmt.Errorf("bench: figure %q has no rows", fig.Name)
		}
		for _, row := range fig.Rows {
			if len(row.Cells) == 0 {
				return fmt.Errorf("bench: figure %q row %q has no cells", fig.Name, row.Query)
			}
			for col, v := range row.Cells {
				if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
					return fmt.Errorf("bench: figure %q row %q cell %q = %v", fig.Name, row.Query, col, v)
				}
			}
		}
	}
	return nil
}

// ValidateJSON parses a serialized Result and validates it (the CI
// smoke contract). Unknown fields are ignored, so results written when
// the schema still carried a telemetry snapshot keep validating.
func ValidateJSON(data []byte) (*Result, error) {
	var r Result
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("bench: malformed result JSON: %w", err)
	}
	if err := r.Validate(); err != nil {
		return nil, err
	}
	return &r, nil
}
