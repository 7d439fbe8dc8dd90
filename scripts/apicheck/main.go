// Command apicheck keeps the partition package's planning surface at
// its core entry points: Solve, Evaluate, NewSweep and the three
// baselines, each taking one cost-weight set per hierarchy level. It
// fails if internal/partition exports a function whose name ends in
// Ctx, With, Weighted or PerLevel — the shapes a cancellation, pool or
// cost-model variant takes. A new search capability belongs on
// partition.Request as a field, where it composes with the others,
// not on the package as one more function per combination.
//
// Usage: go run ./scripts/apicheck [dir]  (default internal/partition)
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// variantSuffixes are the name shapes of per-capability variants.
var variantSuffixes = []string{"Ctx", "With", "Weighted", "PerLevel"}

func main() {
	dir := filepath.Join("internal", "partition")
	if len(os.Args) > 1 {
		dir = os.Args[1]
	}
	offenders, err := check(dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "apicheck:", err)
		os.Exit(1)
	}
	if len(offenders) > 0 {
		fmt.Fprintf(os.Stderr, "apicheck: %s exports search variants:\n", dir)
		for _, o := range offenders {
			fmt.Fprintf(os.Stderr, "  %s\n", o)
		}
		fmt.Fprintln(os.Stderr, "add the capability as a partition.Request field served by Solve instead of a variant")
		os.Exit(1)
	}
	fmt.Printf("apicheck: %s exports no search variants\n", dir)
}

// check parses every non-test file in dir and returns the exported
// top-level functions that match a variant suffix, as
// "name (file:line)" strings sorted by name.
func check(dir string) ([]string, error) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		return nil, err
	}
	var offenders []string
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Recv != nil || !fn.Name.IsExported() {
					continue // methods may vary; the lint is about package-level variants
				}
				name := fn.Name.Name
				if !hasVariantSuffix(name) {
					continue
				}
				pos := fset.Position(fn.Pos())
				offenders = append(offenders,
					fmt.Sprintf("%s (%s:%d)", name, pos.Filename, pos.Line))
			}
		}
	}
	sort.Strings(offenders)
	return offenders, nil
}

func hasVariantSuffix(name string) bool {
	for _, s := range variantSuffixes {
		if strings.HasSuffix(name, s) && name != s {
			return true
		}
	}
	return false
}
