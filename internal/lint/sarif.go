package lint

import (
	"encoding/json"
	"io"
	"path/filepath"
	"strings"
)

// sarif.go: minimal SARIF 2.1.0 output so CI can upload findings to
// code scanning. Only the fields GitHub's ingester needs are emitted:
// one run, one rule per registered pass, one result per finding with a
// physical location relative to the module root.

type sarifLog struct {
	Schema  string     `json:"$schema"`
	Version string     `json:"version"`
	Runs    []sarifRun `json:"runs"`
}

type sarifRun struct {
	Tool    sarifTool     `json:"tool"`
	Results []sarifResult `json:"results"`
}

type sarifTool struct {
	Driver sarifDriver `json:"driver"`
}

type sarifDriver struct {
	Name           string      `json:"name"`
	InformationURI string      `json:"informationUri,omitempty"`
	Rules          []sarifRule `json:"rules"`
}

type sarifRule struct {
	ID               string    `json:"id"`
	ShortDescription sarifText `json:"shortDescription"`
}

type sarifText struct {
	Text string `json:"text"`
}

type sarifResult struct {
	RuleID    string          `json:"ruleId"`
	Level     string          `json:"level"`
	Message   sarifText       `json:"message"`
	Locations []sarifLocation `json:"locations"`
}

type sarifLocation struct {
	PhysicalLocation sarifPhysical `json:"physicalLocation"`
}

type sarifPhysical struct {
	ArtifactLocation sarifArtifact `json:"artifactLocation"`
	Region           sarifRegion   `json:"region"`
}

type sarifArtifact struct {
	URI       string `json:"uri"`
	URIBaseID string `json:"uriBaseId,omitempty"`
}

type sarifRegion struct {
	StartLine   int `json:"startLine"`
	StartColumn int `json:"startColumn,omitempty"`
}

// WriteSARIF renders findings as a SARIF 2.1.0 log; every finding
// written shows up as an alert.
func WriteSARIF(w io.Writer, root string, findings []Finding) error {
	var rules []sarifRule
	for _, p := range Passes() {
		rules = append(rules, sarifRule{ID: p.Name, ShortDescription: sarifText{Text: p.Doc}})
	}
	results := make([]sarifResult, 0, len(findings))
	for _, f := range findings {
		uri := f.Pos.Filename
		if rel, err := filepath.Rel(root, uri); err == nil && !strings.HasPrefix(rel, "..") {
			uri = filepath.ToSlash(rel)
		}
		line := f.Pos.Line
		if line < 1 {
			line = 1
		}
		results = append(results, sarifResult{
			RuleID:  f.Pass,
			Level:   "warning",
			Message: sarifText{Text: f.Msg},
			Locations: []sarifLocation{{
				PhysicalLocation: sarifPhysical{
					ArtifactLocation: sarifArtifact{URI: uri, URIBaseID: "%SRCROOT%"},
					Region:           sarifRegion{StartLine: line, StartColumn: f.Pos.Column},
				},
			}},
		})
	}
	log := sarifLog{
		Schema:  "https://json.schemastore.org/sarif-2.1.0.json",
		Version: "2.1.0",
		Runs: []sarifRun{{
			Tool:    sarifTool{Driver: sarifDriver{Name: "poseidonlint", Rules: rules}},
			Results: results,
		}},
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(log)
}
