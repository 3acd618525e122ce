package lint

import (
	"encoding/json"
	"io"
	"path/filepath"
	"strings"
)

// sarif mirrors the slice of the SARIF 2.1.0 schema the suite emits: one run,
// one result per finding, and the source→sink path as a codeFlow so PR
// annotation UIs can render the full chain.
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
	Name  string      `json:"name"`
	Rules []sarifRule `json:"rules"`
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
	CodeFlows []sarifCodeFlow `json:"codeFlows,omitempty"`
}

type sarifLocation struct {
	PhysicalLocation sarifPhysical `json:"physicalLocation"`
	Message          *sarifText    `json:"message,omitempty"`
}

type sarifPhysical struct {
	ArtifactLocation sarifArtifact `json:"artifactLocation"`
	Region           sarifRegion   `json:"region"`
}

type sarifArtifact struct {
	URI string `json:"uri"`
}

type sarifRegion struct {
	StartLine   int `json:"startLine"`
	StartColumn int `json:"startColumn,omitempty"`
}

type sarifCodeFlow struct {
	ThreadFlows []sarifThreadFlow `json:"threadFlows"`
}

type sarifThreadFlow struct {
	Locations []sarifThreadFlowLoc `json:"locations"`
}

type sarifThreadFlowLoc struct {
	Location sarifLocation `json:"location"`
}

// WriteSARIF emits the findings as SARIF 2.1.0 for CI annotation.
func WriteSARIF(w io.Writer, modRoot string, diags []Diagnostic) error {
	rules := make([]sarifRule, 0, len(Analyzers))
	for _, a := range Analyzers {
		rules = append(rules, sarifRule{ID: a.Name, ShortDescription: sarifText{Text: a.Doc}})
	}
	results := make([]sarifResult, 0, len(diags))
	for _, d := range diags {
		res := sarifResult{
			RuleID:  d.Rule,
			Level:   "error",
			Message: sarifText{Text: d.Message},
			Locations: []sarifLocation{{
				PhysicalLocation: sarifPhysical{
					ArtifactLocation: sarifArtifact{URI: relFile(modRoot, d.Pos.Filename)},
					Region:           sarifRegion{StartLine: d.Pos.Line, StartColumn: d.Pos.Column},
				},
			}},
		}
		if len(d.Path) > 0 {
			flow := sarifThreadFlow{}
			for _, s := range d.Path {
				note := s.Note
				flow.Locations = append(flow.Locations, sarifThreadFlowLoc{Location: sarifLocation{
					PhysicalLocation: sarifPhysical{
						ArtifactLocation: sarifArtifact{URI: relFile(modRoot, s.Pos.Filename)},
						Region:           sarifRegion{StartLine: s.Pos.Line, StartColumn: s.Pos.Column},
					},
					Message: &sarifText{Text: note},
				}})
			}
			res.CodeFlows = []sarifCodeFlow{{ThreadFlows: []sarifThreadFlow{flow}}}
		}
		results = append(results, res)
	}
	log := sarifLog{
		Schema:  "https://json.schemastore.org/sarif-2.1.0.json",
		Version: "2.1.0",
		Runs:    []sarifRun{{Tool: sarifTool{Driver: sarifDriver{Name: "themis-lint", Rules: rules}}, Results: results}},
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(log)
}

// relFile rewrites an absolute file name relative to the module root, with
// forward slashes, so emitted artifacts are checkout-independent.
func relFile(modRoot, name string) string {
	if modRoot == "" {
		return name
	}
	if rel, err := filepath.Rel(modRoot, name); err == nil && !strings.HasPrefix(rel, "..") {
		return filepath.ToSlash(rel)
	}
	return filepath.ToSlash(name)
}
