// Package experiments regenerates every quantitative table and figure in
// the paper's evaluation (Sections III and V), at a configurable scale.
// Each experiment returns a Report pairing the paper's claim with the
// values measured from this reproduction; cmd/experiments renders them,
// and BenchmarkExperiments times each one.
package experiments

import (
	"fmt"
	"strings"
)

// Report is one experiment's outcome.
type Report struct {
	// ID is the experiment identifier from DESIGN.md (T1, fig3, A1...),
	// set by Runner.Run from the registry.
	ID string
	// Title is a one-line description.
	Title string
	// PaperClaim summarizes what the paper reports.
	PaperClaim string
	// Header and Rows form the measured-results table.
	Header []string
	Rows   [][]string
	// Notes are free-form observations comparing shape to the paper.
	Notes []string
	// Files lists artifacts written (e.g. SVG figures).
	Files []string
}

// Render formats the report as markdown.
func (r *Report) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "## %s — %s\n\n", r.ID, r.Title)
	fmt.Fprintf(&b, "**Paper:** %s\n\n", r.PaperClaim)
	if len(r.Header) > 0 {
		b.WriteString("| " + strings.Join(r.Header, " | ") + " |\n")
		b.WriteString("|" + strings.Repeat("---|", len(r.Header)) + "\n")
		for _, row := range r.Rows {
			b.WriteString("| " + strings.Join(row, " | ") + " |\n")
		}
		b.WriteString("\n")
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "- %s\n", n)
	}
	if len(r.Files) > 0 {
		fmt.Fprintf(&b, "\nArtifacts: %s\n", strings.Join(r.Files, ", "))
	}
	b.WriteString("\n")
	return b.String()
}

func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func f3(v float64) string { return fmt.Sprintf("%.3f", v) }
func d(v int) string      { return fmt.Sprintf("%d", v) }
func d64(v uint64) string { return fmt.Sprintf("%d", v) }
func mb(bytes uint64) string {
	return fmt.Sprintf("%.2f MB", float64(bytes)/(1<<20))
}
