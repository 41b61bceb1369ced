// Command finepack-vet is the multichecker for the simulator's determinism
// and performance contracts (DESIGN.md §13). It runs the full
// internal/analysis suite — wallclock, unseededrand, maporder,
// goroutinefree, sprintfkey, hotalloc, simunits, lockheld — over the named
// packages and exits non-zero on any finding.
//
// Usage:
//
//	finepack-vet [-list] [-json] [-allowances] [packages]
//
// With no packages, ./... is checked. Findings print one per line as
// file:line:col: message (analyzer). Suppress a deliberate violation with
//
//	//finepack:allow <analyzer> -- <justification>
//
// on or directly above the offending line (or in a function's doc comment
// to exempt the whole declaration); the justification is mandatory.
//
// -json emits machine-readable diagnostics instead of text: a single JSON
// object {"findings": [...], "suppressed": [...]} where every entry carries
// file/line/col/analyzer/message/suppressed. The exit code contract is
// unchanged — suppressed findings do not fail the run.
//
// -allowances audits the escape hatches instead of the code: it prints
// every //finepack:allow directive in the tree with its justification and
// exits 1 if any directive names an unknown analyzer or carries an empty
// justification. `make lint` runs this so silencing a finding always costs
// a written reason.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"finepack/internal/analysis"
	"finepack/internal/analysis/driver"
	"finepack/internal/analysis/suite"
)

// jsonFinding is the stable -json schema for one diagnostic. Field names
// are pinned by TestJSONSchema; the GitHub Actions problem matcher in
// .github/finepack-vet-matcher.json parses the text format instead, so
// only tooling that asked for JSON depends on this.
type jsonFinding struct {
	File       string `json:"file"`
	Line       int    `json:"line"`
	Col        int    `json:"col"`
	Analyzer   string `json:"analyzer"`
	Message    string `json:"message"`
	Suppressed bool   `json:"suppressed"`
}

// jsonReport is the -json top-level object.
type jsonReport struct {
	Findings   []jsonFinding `json:"findings"`
	Suppressed []jsonFinding `json:"suppressed"`
}

func main() {
	listOnly := flag.Bool("list", false, "list the analyzers in the suite and exit")
	jsonOut := flag.Bool("json", false, "emit findings as JSON (including suppressed ones) instead of text")
	audit := flag.Bool("allowances", false, "audit //finepack:allow directives instead of reporting findings")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: finepack-vet [-list] [-json] [-allowances] [packages]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *listOnly {
		for _, a := range suite.All() {
			fmt.Printf("%-14s %s\n", a.Name, a.Doc)
		}
		return
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	cfg := driver.Config{
		Patterns:          patterns,
		Analyzers:         suite.All(),
		IncludeSuppressed: *jsonOut,
	}
	findings, allows, err := driver.Collect(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "finepack-vet:", err)
		os.Exit(2)
	}

	switch {
	case *audit:
		os.Exit(auditAllowances(findings, allows))
	case *jsonOut:
		os.Exit(printJSON(findings))
	default:
		live := 0
		for _, f := range findings {
			if f.Suppressed {
				continue
			}
			fmt.Println(f)
			live++
		}
		if live > 0 {
			fmt.Fprintf(os.Stderr, "finepack-vet: %d finding(s)\n", live)
			os.Exit(1)
		}
	}
}

// printJSON renders the full report — live and suppressed findings — and
// returns the process exit code (1 iff any live finding exists).
func printJSON(findings []analysis.Finding) int {
	report := jsonReport{Findings: []jsonFinding{}, Suppressed: []jsonFinding{}}
	live := 0
	for _, f := range findings {
		jf := jsonFinding{
			File:       f.Pos.Filename,
			Line:       f.Pos.Line,
			Col:        f.Pos.Column,
			Analyzer:   f.Analyzer,
			Message:    f.Message,
			Suppressed: f.Suppressed,
		}
		if f.Suppressed {
			report.Suppressed = append(report.Suppressed, jf)
		} else {
			report.Findings = append(report.Findings, jf)
			live++
		}
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(report); err != nil {
		fmt.Fprintln(os.Stderr, "finepack-vet:", err)
		return 2
	}
	if live > 0 {
		return 1
	}
	return 0
}

// auditAllowances prints the reviewable inventory of every
// //finepack:allow directive with its justification and fails the run when
// any directive is defective. Malformed, justification-free, or
// unknown-analyzer directives never make it into the allows list — the
// parser reports them as DirectiveAnalyzer findings — so the audit folds
// those findings in as BAD entries, and keeps a backstop check on the
// parsed allows themselves.
func auditAllowances(findings []analysis.Finding, allows []analysis.Allow) int {
	known := suite.Names()
	bad := 0
	for _, f := range findings {
		if f.Analyzer == analysis.DirectiveAnalyzer {
			fmt.Printf("%s:%d: BAD: %s\n", f.Pos.Filename, f.Pos.Line, f.Message)
			bad++
		}
	}
	for _, a := range allows {
		problem := ""
		switch {
		case !known[a.Analyzer]:
			problem = "unknown analyzer"
		case strings.TrimSpace(a.Justification) == "":
			problem = "empty justification"
		}
		if problem != "" {
			fmt.Printf("%s:%d: BAD (%s): //finepack:allow %s -- %q\n", a.File, a.Line, problem, a.Analyzer, a.Justification)
			bad++
			continue
		}
		fmt.Printf("%s:%d: %s -- %s\n", a.File, a.Line, a.Analyzer, a.Justification)
	}
	fmt.Printf("%d allowance(s), %d bad\n", len(allows), bad)
	if bad > 0 {
		return 1
	}
	return 0
}
