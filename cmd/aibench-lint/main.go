// Command aibench-lint runs the suite's determinism lint
// (internal/analyzers) over Go packages: six analyzers that enforce
// the reproducibility invariants — no unordered map iteration in
// result paths, no unseeded randomness or wall-clock in deterministic
// packages, ctx checked in every epoch loop, tensor math behind the
// kernel dispatch, sink errors never dropped, op results allocated
// from the step arena — at build time, before the code ever runs.
//
// Usage:
//
//	aibench-lint [-list] [-only a,b] [-scope-all] [packages]
//
// With no packages, ./... is checked. The exit status is 1 when any
// diagnostic survives (suppressions via //lint:allow <analyzer>
// <reason> are honoured), 2 on a driver error, 0 on a clean tree.
//
// -scope-all disregards the per-package scope config and applies every
// analyzer to every package; CI uses it to prove the lint gate fails
// on a deliberately-seeded violation in a scratch module whose import
// paths are not aibench's.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"aibench/internal/analyzers"
)

func main() {
	list := flag.Bool("list", false, "list the analyzers and exit")
	only := flag.String("only", "", "comma-separated analyzer names to run (default: all)")
	scopeAll := flag.Bool("scope-all", false, "apply every analyzer to every package, ignoring the scope config")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: aibench-lint [-list] [-only a,b] [-scope-all] [packages]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		for _, a := range analyzers.All() {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}

	suite := analyzers.All()
	if *only != "" {
		suite = suite[:0]
		for _, name := range strings.Split(*only, ",") {
			a := analyzers.ByName(strings.TrimSpace(name))
			if a == nil {
				fmt.Fprintf(os.Stderr, "aibench-lint: unknown analyzer %q (use -list)\n", name)
				os.Exit(2)
			}
			suite = append(suite, a)
		}
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(os.Stderr, "aibench-lint: %v\n", err)
		os.Exit(2)
	}
	pkgs, err := analyzers.Load(cwd, patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "aibench-lint: %v\n", err)
		os.Exit(2)
	}
	diags, err := analyzers.Run(pkgs, suite, *scopeAll)
	if err != nil {
		fmt.Fprintf(os.Stderr, "aibench-lint: %v\n", err)
		os.Exit(2)
	}
	for _, d := range diags {
		fmt.Println(d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "aibench-lint: %d invariant violation(s)\n", len(diags))
		os.Exit(1)
	}
}
