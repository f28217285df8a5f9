// Command microvet runs the repo-specific static analyzers over the
// module and exits non-zero if any invariant is violated. It is wired
// into `make lint` and the CI lint job; see docs/ANALYSIS.md for what
// each analyzer enforces and how to bless intentional violations.
//
// Usage:
//
//	go run ./cmd/microvet [-analyzers a,b] [-list] [packages...]
//
// Packages default to ./... and accept any `go list` pattern.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"micronets/internal/analysis"
)

func main() {
	var (
		only  = flag.String("analyzers", "", "comma-separated analyzer names to run (default: all)")
		list  = flag.Bool("list", false, "list analyzers and exit")
		reach = flag.Bool("reach", false, "print the hotpathalloc reachability set with provenance and exit")
	)
	flag.Parse()

	all := analysis.DefaultAnalyzers()
	if *list {
		for _, a := range all {
			fmt.Printf("%-14s %s\n", a.Name(), a.Doc())
		}
		return
	}

	analyzers := all
	if *only != "" {
		want := make(map[string]bool)
		for _, name := range strings.Split(*only, ",") {
			want[strings.TrimSpace(name)] = true
		}
		analyzers = nil
		for _, a := range all {
			if want[a.Name()] {
				analyzers = append(analyzers, a)
				delete(want, a.Name())
			}
		}
		for name := range want {
			fmt.Fprintf(os.Stderr, "microvet: unknown analyzer %q (use -list)\n", name)
			os.Exit(2)
		}
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	loader := analysis.NewLoader(".")
	pkgs, err := loader.Load(patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "microvet: %v\n", err)
		os.Exit(2)
	}

	if *reach {
		hp := analysis.NewHotPathAlloc()
		analysis.Run(loader.Fset, pkgs, nil, []analysis.Analyzer{hp})
		keys := make([]string, 0, len(hp.Reachable))
		for k := range hp.Reachable {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			from := hp.Origin[k]
			if from == "" {
				from = "(root)"
			}
			fmt.Printf("%-70s <- %s\n", k, from)
		}
		return
	}

	// Uses from tests, bench/ and packages outside the patterns count
	// for deadexport; no analyzer checks them.
	users, err := loader.LoadUsers(pkgs)
	if err != nil {
		fmt.Fprintf(os.Stderr, "microvet: %v\n", err)
		os.Exit(2)
	}
	diags := analysis.Run(loader.Fset, pkgs, users, analyzers)
	for _, d := range diags {
		fmt.Println(d.String())
	}
	if n := len(diags); n > 0 {
		fmt.Fprintf(os.Stderr, "microvet: %d finding(s) across %d package(s)\n", n, len(pkgs))
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "microvet: clean (%d package(s), %d analyzer(s))\n", len(pkgs), len(analyzers))
}
