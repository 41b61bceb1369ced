// Package driver loads Go packages offline and runs finepack-vet analyzers
// over them.
//
// Loading shells out to `go list -export -deps -json`, which yields, for
// every target package and every transitive dependency, the file list plus
// a build-cache path to compiled export data. Target packages are then
// parsed with go/parser and type-checked with go/types, importing
// dependencies through the gc export-data importer — no network, no
// GOPATH layout, and no third-party loader required.
//
// All target packages are loaded before any analyzer runs: the analysis
// engine (analysis.RunAll) builds a whole-program call graph and a
// cross-package fact store over the full target set, then analyzes each
// package with those in scope. `go list -deps` emits dependencies before
// dependents, so the fact phase sees a package's dependencies first.
package driver

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"

	"finepack/internal/analysis"
)

// Config describes one driver invocation.
type Config struct {
	// Dir is the working directory for `go list`; empty means the
	// process's current directory. Patterns are resolved relative to it.
	Dir string

	// Patterns are `go list` package patterns, e.g. "./...".
	Patterns []string

	// Analyzers to run over each matched package.
	Analyzers []*analysis.Analyzer

	// KnownNames validates //finepack:allow directives. Empty defaults to
	// the names of Analyzers; pass the full suite's names when running a
	// subset so directives for other analyzers don't read as unknown.
	KnownNames map[string]bool

	// IncludeSuppressed keeps findings silenced by justified
	// //finepack:allow directives in the result, flagged Suppressed=true.
	// Off, the driver returns only live findings (the historical
	// behavior).
	IncludeSuppressed bool
}

// listPkg is the subset of `go list -json` output the driver consumes.
type listPkg struct {
	Dir        string
	ImportPath string
	Export     string
	GoFiles    []string
	DepOnly    bool
}

// Run loads every package matched by cfg.Patterns, runs the analyzers, and
// returns the findings sorted by position. A non-empty findings slice is
// not an error; err reports load or type-check failures only.
func Run(cfg Config) ([]analysis.Finding, error) {
	findings, _, err := Collect(cfg)
	return findings, err
}

// Collect is Run plus the parsed //finepack:allow directives across the
// target set, for audit tooling (finepack-vet -allowances).
func Collect(cfg Config) ([]analysis.Finding, []analysis.Allow, error) {
	if len(cfg.Patterns) == 0 {
		cfg.Patterns = []string{"./..."}
	}
	known := cfg.KnownNames
	if len(known) == 0 {
		known = make(map[string]bool, len(cfg.Analyzers))
		for _, a := range cfg.Analyzers {
			known[a.Name] = true
		}
	}

	units, err := load(cfg)
	if err != nil {
		return nil, nil, err
	}
	findings, allows, err := analysis.RunAll(units, cfg.Analyzers, known)
	if err != nil {
		return nil, nil, err
	}
	if !cfg.IncludeSuppressed {
		live := findings[:0]
		for _, f := range findings {
			if !f.Suppressed {
				live = append(live, f)
			}
		}
		findings = live
	}
	return findings, allows, nil
}

// load lists, parses and type-checks every target package, in the
// dependency order `go list -deps` emits.
func load(cfg Config) ([]*analysis.Unit, error) {
	targets, exports, err := list(cfg.Dir, cfg.Patterns)
	if err != nil {
		return nil, err
	}

	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		exp, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(exp)
	})

	units := make([]*analysis.Unit, 0, len(targets))
	for _, t := range targets {
		files := make([]*ast.File, 0, len(t.GoFiles))
		for _, name := range t.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(t.Dir, name), nil, parser.ParseComments)
			if err != nil {
				return nil, fmt.Errorf("parse %s: %w", name, err)
			}
			files = append(files, f)
		}
		info := &types.Info{
			Types:      make(map[ast.Expr]types.TypeAndValue),
			Uses:       make(map[*ast.Ident]types.Object),
			Defs:       make(map[*ast.Ident]types.Object),
			Selections: make(map[*ast.SelectorExpr]*types.Selection),
		}
		conf := types.Config{Importer: imp}
		pkg, err := conf.Check(t.ImportPath, fset, files, info)
		if err != nil {
			return nil, fmt.Errorf("typecheck %s: %w", t.ImportPath, err)
		}
		units = append(units, &analysis.Unit{Fset: fset, Files: files, Pkg: pkg, Info: info})
	}
	return units, nil
}

// list runs `go list -export -deps -json` and splits the result into target
// packages (to be analyzed) and an importpath→exportfile map covering every
// dependency.
func list(dir string, patterns []string) (targets []listPkg, exports map[string]string, err error) {
	args := append([]string{"list", "-export", "-deps", "-json=Dir,ImportPath,Export,GoFiles,DepOnly"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, nil, fmt.Errorf("go list %v: %w\n%s", patterns, err, stderr.String())
	}
	exports = make(map[string]string)
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listPkg
		if err := dec.Decode(&p); errors.Is(err, io.EOF) {
			break
		} else if err != nil {
			return nil, nil, fmt.Errorf("decode go list output: %w", err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if !p.DepOnly {
			targets = append(targets, p)
		}
	}
	return targets, exports, nil
}
